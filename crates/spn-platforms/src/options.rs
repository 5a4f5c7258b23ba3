//! Engine construction options.
//!
//! [`EngineOptions`] is the single configuration surface of
//! [`Engine::new`](crate::Engine::new): it names the numeric domain and the
//! emulated PE precision the circuit is lowered into, plus the one
//! per-backend tuning knob (the CPU model's lane width; a multi-core
//! simulator is built with `ProcessorBackend::with_cores`).  Backends
//! receive the options through
//! [`Backend::configure`](crate::Backend::configure) before compilation and
//! apply whichever fields concern them.

use spn_core::flatten::OpList;
use spn_core::{NumericMode, Precision, Spn};

/// How to lower and execute a circuit: numeric domain, emulated PE
/// precision, and the CPU model's lane width.
///
/// Build with the fluent setters from [`EngineOptions::default`] (linear
/// domain, [`Precision::F64`], backend defaults untouched):
///
/// ```
/// use spn_core::{NumericMode, Precision};
/// use spn_platforms::EngineOptions;
///
/// let options = EngineOptions::default()
///     .mode(NumericMode::Log)
///     .precision(Precision::E8M10)
///     .lanes(4);
/// assert_eq!(options.mode, NumericMode::Log);
/// assert_eq!(options.lanes, Some(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// Numeric domain the circuit computes in.  In [`NumericMode::Log`]
    /// every value the engine returns is a natural log: joint/marginal
    /// probabilities, MAP circuit values, and conditionals (computed as a
    /// log-space subtraction instead of a division, so deep circuits cannot
    /// fail by denominator underflow).
    pub mode: NumericMode,
    /// Emulated PE arithmetic format.  With [`Precision::F64`] results are
    /// bit-for-bit the native-double reference on every backend; reduced
    /// precisions quantize every intermediate of every kernel — the software
    /// model of the paper's reduced-width PE datapath.
    pub precision: Precision,
    /// Lane-block width of the CPU model's execute-many path (`None` keeps
    /// the backend's own setting; see
    /// [`CpuModel::with_lanes`](crate::CpuModel::with_lanes) for the
    /// normalisation rules).  Ignored by other backends.
    pub lanes: Option<usize>,
}

impl Default for EngineOptions {
    /// Linear domain, native `f64`, backend defaults untouched.
    fn default() -> Self {
        EngineOptions {
            mode: NumericMode::Linear,
            precision: Precision::F64,
            lanes: None,
        }
    }
}

impl EngineOptions {
    /// [`EngineOptions::default`], spelled as a constructor.
    pub fn new() -> EngineOptions {
        EngineOptions::default()
    }

    /// Selects the numeric domain.
    pub fn mode(mut self, mode: NumericMode) -> EngineOptions {
        self.mode = mode;
        self
    }

    /// Selects the emulated PE arithmetic format.
    pub fn precision(mut self, precision: Precision) -> EngineOptions {
        self.precision = precision;
        self
    }

    /// Sets the CPU model's lane-block width.
    pub fn lanes(mut self, lanes: usize) -> EngineOptions {
        self.lanes = Some(lanes);
        self
    }

    /// Flattens `spn` and lowers it into this option set's numeric domain
    /// and precision — the program [`Engine::new`](crate::Engine::new)
    /// compiles.
    pub fn lower(&self, spn: &Spn) -> OpList {
        OpList::from_spn(spn)
            .with_mode(self.mode)
            .with_precision(self.precision)
    }
}
