//! The TCP load generator: one thread, a few non-blocking connections,
//! line-delimited requests out and replies in.
//!
//! Closed loop keeps a fixed number of requests in flight per connection and
//! sends the next only when a reply arrives, so a slow server receives less
//! load — callers that wait.  Open loop sends on a fixed schedule whatever
//! the server does — independent callers — and times each request **from the
//! instant it was due**, so a stall (the server's or the generator's own)
//! is charged to every request queued behind it; how late the generator ran
//! is reported beside the latencies.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use spn_serve::poll::{self, PollFd, POLLIN, POLLOUT};

use crate::stats;
use crate::trace::Tracer;

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Keep this many requests in flight on every connection, answering
    /// each reply with the next request after a think time drawn evenly
    /// from `[0, think_us)` microseconds.  A caller that answers at once
    /// locks onto the phase of the server's poll tick and batching window,
    /// and which phase it locks onto changes from run to run; thinking for
    /// a random fraction of the tick samples every phase instead.
    Closed { in_flight: usize, think_us: u64 },
    /// Send this many requests per second over all connections, round-robin.
    Open { rate: f64 },
}

/// How long after the last send the generator waits for missing replies
/// before it counts them failed.
const DRAIN: Duration = Duration::from_secs(10);

struct InFlight {
    seq: u64,
    due: Instant,
}

/// Think time before request `seq`: a fixed hash of the sequence number
/// (splitmix64), so a run's pacing is the same every time.
fn think_time(seq: u64, think_us: u64) -> Duration {
    let mut z = seq.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Duration::from_micros((z ^ (z >> 31)) % think_us.max(1))
}

/// One non-blocking connection with its unsent bytes, unparsed bytes and
/// the requests awaiting replies (the server answers in order).
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    in_flight: VecDeque<InFlight>,
    /// Closed loop: when the think time before the next request ends.
    ready_at: Instant,
}

impl Conn {
    /// Connects, disables Nagle and switches to non-blocking mode.
    ///
    /// # Errors
    ///
    /// Returns the socket error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            in_flight: VecDeque::new(),
            ready_at: Instant::now(),
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.written = 0;
        Ok(())
    }

    /// Reads what the socket holds; returns whether anything arrived.
    fn fill(&mut self, scratch: &mut [u8]) -> std::io::Result<bool> {
        let mut any = false;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    any = true;
                    if n < scratch.len() {
                        return Ok(any);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One blocking request/reply exchange (set-up and warm-up traffic).
    ///
    /// # Errors
    ///
    /// Returns the socket error, or `TimedOut` after ten seconds.
    pub fn exchange(&mut self, line: &str) -> std::io::Result<String> {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let deadline = Instant::now() + DRAIN;
        let mut scratch = [0u8; 4096];
        loop {
            self.flush()?;
            self.fill(&mut scratch)?;
            if let Some(end) = self.inbuf.iter().position(|&b| b == b'\n') {
                let reply = String::from_utf8_lossy(&self.inbuf[..end]).into_owned();
                self.inbuf.drain(..=end);
                return Ok(reply);
            }
            if Instant::now() > deadline {
                return Err(ErrorKind::TimedOut.into());
            }
            let events = if self.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            poll::wait(
                &mut [PollFd::new(self.stream.as_raw_fd(), events)],
                Duration::from_millis(50),
            )?;
        }
    }
}

/// What one load phase observed.  Times are seconds since the phase began.
#[derive(Debug, Default, Clone)]
pub struct LoadResult {
    pub sent: u64,
    /// Replies that arrived and passed the check.
    pub ok: u64,
    /// Replies that failed the check, plus requests never answered.
    pub failed: u64,
    /// Latency of every reply from its due time, in arrival order (ms).
    pub latency_ms: Vec<f64>,
    /// Arrival time of every reply (s).
    pub done_s: Vec<f64>,
    /// How late each request left against its due time (ms); all zero in a
    /// closed loop, where a request is due when it is sent.
    pub late_ms: Vec<f64>,
    pub elapsed_s: f64,
}

/// Drives `lines` (cycled in order) at the server behind `conns` for
/// `seconds`, handing every reply to `check(seq, reply)` — `seq` counts
/// requests in send order, so request `seq` carried `lines[seq % len]`.
/// With tracing on, every request is recorded as a `loadgen.request` span
/// from its due time to its reply.
///
/// # Errors
///
/// Returns the socket error when a connection breaks.
pub fn drive(
    conns: &mut [Conn],
    pace: Pace,
    seconds: f64,
    lines: &[String],
    check: &mut dyn FnMut(u64, &str) -> bool,
    tracer: &mut Tracer,
) -> std::io::Result<LoadResult> {
    let mut result = LoadResult::default();
    let start = Instant::now();
    let stop_sending = start + Duration::from_secs_f64(seconds);
    let total = match pace {
        Pace::Open { rate } => (rate * seconds).round() as u64,
        Pace::Closed { .. } => u64::MAX,
    };
    let due_at = |seq: u64| match pace {
        Pace::Open { rate } => start + Duration::from_secs_f64(seq as f64 / rate),
        Pace::Closed { .. } => start,
    };
    let mut scratch = vec![0u8; 64 * 1024];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    loop {
        // Send what is due.
        let now = Instant::now();
        let enqueue = |conn: &mut Conn, result: &mut LoadResult, due: Instant| {
            let seq = result.sent;
            conn.out
                .extend_from_slice(lines[(seq % lines.len() as u64) as usize].as_bytes());
            conn.out.push(b'\n');
            conn.in_flight.push_back(InFlight { seq, due });
            result
                .late_ms
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            result.sent += 1;
        };
        let done_sending = match pace {
            Pace::Open { .. } => {
                while result.sent < total && due_at(result.sent) <= now {
                    let conn = (result.sent % conns.len() as u64) as usize;
                    let due = due_at(result.sent);
                    enqueue(&mut conns[conn], &mut result, due);
                }
                result.sent >= total
            }
            Pace::Closed { in_flight, .. } => {
                let done = now >= stop_sending;
                for conn in conns.iter_mut().filter(|c| !done && c.ready_at <= now) {
                    while conn.in_flight.len() < in_flight {
                        enqueue(conn, &mut result, now);
                    }
                }
                done
            }
        };
        // Write, then read whatever has arrived.
        for conn in conns.iter_mut() {
            conn.flush()?;
            if !conn.fill(&mut scratch)? {
                continue;
            }
            let arrived = Instant::now();
            let mut consumed = 0;
            while let Some(len) = conn.inbuf[consumed..].iter().position(|&b| b == b'\n') {
                let reply =
                    std::str::from_utf8(&conn.inbuf[consumed..consumed + len]).unwrap_or("");
                consumed += len + 1;
                let Some(request) = conn.in_flight.pop_front() else {
                    result.failed += 1;
                    continue;
                };
                if check(request.seq, reply) {
                    result.ok += 1;
                } else {
                    result.failed += 1;
                }
                result
                    .latency_ms
                    .push(arrived.saturating_duration_since(request.due).as_secs_f64() * 1e3);
                result
                    .done_s
                    .push(arrived.saturating_duration_since(start).as_secs_f64());
                tracer.record("loadgen.request", request.seq, request.due, arrived);
                if let Pace::Closed { think_us, .. } = pace {
                    conn.ready_at = arrived + think_time(request.seq, think_us);
                }
            }
            conn.inbuf.drain(..consumed);
        }
        let waiting: usize = conns.iter().map(|c| c.in_flight.len()).sum();
        if done_sending && waiting == 0 {
            break;
        }
        let now = Instant::now();
        if done_sending && now > stop_sending + DRAIN {
            result.failed += waiting as u64;
            break;
        }
        // Sleep until a reply can be read, unsent bytes can be written or
        // the next request is due.  `poll(2)` counts whole milliseconds, so
        // a nearer due time is slept out instead: at most that long passes
        // before an arrived reply is stamped.
        let until_due = match pace {
            _ if done_sending => Duration::from_millis(50),
            Pace::Open { .. } => due_at(result.sent).saturating_duration_since(now),
            Pace::Closed { in_flight, .. } => conns
                .iter()
                .filter(|c| c.in_flight.len() < in_flight)
                .map(|c| c.ready_at.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(50)),
        };
        if until_due < Duration::from_millis(1) {
            std::thread::sleep(until_due);
            continue;
        }
        fds.clear();
        fds.extend(conns.iter().map(|c| {
            let events = if c.out.is_empty() {
                POLLIN
            } else {
                POLLIN | POLLOUT
            };
            PollFd::new(c.stream.as_raw_fd(), events)
        }));
        poll::wait(&mut fds, until_due)?;
    }
    result.elapsed_s = start.elapsed().as_secs_f64();
    Ok(result)
}

/// Latencies and rates of one or more load phases, warm-up share dropped.
///
/// The gated figures are those of the **fast decile** of thirty equal-count
/// slices.  Slices of a TCP run are not independent draws: the rate moves in
/// regimes of seconds (which thread holds which core, how long the
/// hypervisor takes to wake an idle one), so a run often holds fewer than a
/// quarter of quiet slices, and over thirty 14 s runs the third-fastest
/// slice repeated best (quartile distance over median 7.6 %, against 8.6 %
/// for the fast quartile, 10.0 % for the median slice and 9.0 % for the
/// plain mean; 12.7 / 14.9 / 22.0 / 19.5 % through the noisiest ten).
#[derive(Debug, Clone)]
pub struct LoadSummary {
    pub latency_sorted_ms: Vec<f64>,
    /// Replies per second at the fast-decile slice: the gated rate.
    pub fast_rate: f64,
    /// Median latency of the fast-decile slice — the first decile of the
    /// thirty slices' medians: the gated latency.
    pub fast_p50_ms: f64,
    /// Share of the median slice's replies that arrived within the limit: a
    /// scheduler stall of 50–150 ms puts a few hundred replies of one slice
    /// past any limit, and how many stalls a run meets is the box's doing;
    /// a tail that moved shows in every slice.
    pub within_limit_share: f64,
    /// Replies per second over the whole window after warm-up: the rate of
    /// an open loop, which completes what its schedule offers (its fast
    /// slices are backlogs draining after a stall); a diagnostic for a
    /// closed loop, where it carries every stall and slow spell of the box.
    pub replies_per_s: f64,
    /// The slices' fast-quartile and median rates and their spread
    /// (diagnostic).
    pub rate: stats::SliceRate,
}

/// The share of slices at or below which the gated figures are read.
const FAST_SHARE: f64 = 0.1;

/// Equal-count slices the reply stream is cut into.
const RATE_SLICES: usize = 30;

/// Summarises a phase: the first 1/31 of the replies is warm-up and dropped;
/// the rest is cut into thirty equal-count slices by arrival time.
/// `limit_ms` is the latency limit `within_limit_share` counts against.
pub fn summarize(result: &LoadResult, limit_ms: f64) -> LoadSummary {
    let n = result.done_s.len();
    let per_slice = (n / (RATE_SLICES + 1)).max(1);
    let warm = n.saturating_sub(per_slice * RATE_SLICES).min(n);
    let bounds = (0..RATE_SLICES)
        .map(|i| (warm + i * per_slice, warm + (i + 1) * per_slice))
        .filter(|&(first, last)| first > 0 && last <= n);
    // A slice runs from the reply before it to its last reply.
    let slices: Vec<f64> = bounds
        .clone()
        .map(|(first, last)| result.done_s[last - 1] - result.done_s[first - 1])
        .collect();
    let slice_p50: Vec<f64> = bounds
        .clone()
        .map(|(first, last)| stats::median(&result.latency_ms[first..last]))
        .collect();
    let slice_within: Vec<f64> = bounds
        .map(|(first, last)| {
            let within = result.latency_ms[first..last]
                .iter()
                .filter(|&&l| l <= limit_ms)
                .count();
            within as f64 / per_slice as f64
        })
        .collect();
    let window = match (
        warm.checked_sub(1).and_then(|i| result.done_s.get(i)),
        result.done_s.last(),
    ) {
        (Some(first), Some(last)) if last > first => last - first,
        _ => result.elapsed_s,
    };
    LoadSummary {
        replies_per_s: (n - warm) as f64 / window,
        latency_sorted_ms: stats::sorted(result.latency_ms[warm..].to_vec()),
        fast_rate: per_slice as f64 / stats::percentile(&stats::sorted(slices.clone()), FAST_SHARE),
        fast_p50_ms: stats::percentile(&stats::sorted(slice_p50), FAST_SHARE),
        within_limit_share: stats::median(&slice_within),
        rate: stats::slice_rate(per_slice as f64, &slices),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// Echoes every line back until the peer hangs up.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn an_open_loop_charges_a_generator_stall_to_the_requests_behind_it() {
        let (addr, server) = echo_server();
        let mut conns = [Conn::connect(addr).unwrap()];
        let lines: Vec<String> = (0..16).map(|i| format!("request-{i}")).collect();
        let stall = Duration::from_millis(60);
        // 500 requests/s for 0.4 s; checking reply 50 stalls the generator,
        // as a descheduled load generator would.
        let mut check = |seq: u64, reply: &str| {
            if seq == 50 {
                std::thread::sleep(stall);
            }
            reply == lines[(seq % 16) as usize]
        };
        let result = drive(
            &mut conns,
            Pace::Open { rate: 500.0 },
            0.4,
            &lines,
            &mut check,
            &mut Tracer::new(false),
        )
        .unwrap();
        drop(conns);
        server.join().unwrap();
        assert_eq!((result.sent, result.ok, result.failed), (200, 200, 0));
        // Requests due during the stall left late, and their latency counts
        // from the due time: about thirty of them (60 ms at 2 ms spacing)
        // waited, the first of them nearly the whole stall.
        let late_max = result.late_ms.iter().copied().fold(0.0, f64::max);
        assert!(late_max >= 50.0, "late_max {late_max}");
        let slow = result.latency_ms.iter().filter(|&&l| l >= 10.0).count();
        assert!((20..=60).contains(&slow), "{slow} requests saw the stall");
        let before: Vec<f64> = result.latency_ms[..40].to_vec();
        assert!(stats::median(&before) < 10.0);
        assert!(result.latency_ms[51..56].iter().all(|&l| l >= 40.0));
    }

    #[test]
    fn a_closed_loop_keeps_its_window_full_and_is_never_late() {
        let (addr, server) = echo_server();
        let mut conns = [Conn::connect(addr).unwrap()];
        assert_eq!(conns[0].exchange("hello").unwrap(), "hello");
        let lines = vec!["a".to_string(), "b".to_string()];
        let mut tracer = Tracer::new(true);
        let result = drive(
            &mut conns,
            Pace::Closed {
                in_flight: 4,
                think_us: 0,
            },
            0.1,
            &lines,
            &mut |seq, reply| reply == lines[(seq % 2) as usize],
            &mut tracer,
        )
        .unwrap();
        drop(conns);
        server.join().unwrap();
        assert!(result.sent > 100);
        assert_eq!((result.ok, result.failed), (result.sent, 0));
        assert!(result.late_ms.iter().all(|&l| l == 0.0));
        assert!(think_time(7, 0).is_zero());
        assert!((0..100).all(|seq| think_time(seq, 1000) < Duration::from_millis(1)));
        assert_ne!(think_time(1, 1000), think_time(2, 1000));
        assert_eq!(tracer.spans().len() as u64, result.sent);
        let summary = summarize(&result, 50.0);
        assert!(summary.fast_rate >= summary.rate.fast && summary.rate.fast > 1000.0);
        assert!(summary.replies_per_s > 1000.0 && summary.fast_p50_ms > 0.0);
        assert_eq!(summary.within_limit_share, 1.0);
        assert!(summary.latency_sorted_ms.len() < result.latency_ms.len());
    }
}
