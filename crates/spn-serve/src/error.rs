//! Error type of the serving layer.

use spn_core::analysis::Diagnostic;
use spn_core::SpnError;
use spn_platforms::BackendError;

/// Everything that can go wrong between a request arriving and its response
/// being sent.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The request named a model the registry does not hold.
    UnknownModel(String),
    /// The request itself is malformed (bad evidence row, arity mismatch,
    /// empty batch, invalid joint row, ...).
    Invalid(String),
    /// A backend failed to compile or execute (includes zero-probability
    /// conditioning evidence surfaced at execution time).
    Backend(String),
    /// The service is shutting down and will not accept or answer requests.
    ShuttingDown,
    /// A wire-level problem: malformed JSON, missing fields, wrong types.
    Protocol(String),
    /// An error reported by a remote server (client-side decoding of an
    /// `ok: false` response).
    Remote(String),
    /// Static verification rejected a model at registration / hot-swap time
    /// ([`ModelRegistry::try_register`](crate::registry::ModelRegistry::try_register)).
    /// Carries the full diagnostic report; [`ServeError::message`] renders
    /// every stable code so clients see the findings over the wire.
    Verification(Vec<Diagnostic>),
}

impl ServeError {
    /// Wraps a backend error (compile or execute time).
    pub(crate) fn from_backend(err: BackendError) -> ServeError {
        ServeError::Backend(err.to_string())
    }

    /// The human-readable message sent over the wire for this error.
    pub fn message(&self) -> String {
        match self {
            ServeError::UnknownModel(name) => format!("unknown model {name:?}"),
            ServeError::Invalid(msg) => format!("invalid request: {msg}"),
            ServeError::Backend(msg) => format!("backend error: {msg}"),
            ServeError::ShuttingDown => "service is shutting down".to_string(),
            ServeError::Protocol(msg) => format!("protocol error: {msg}"),
            ServeError::Remote(msg) => msg.clone(),
            ServeError::Verification(diagnostics) => {
                let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
                format!("model verification failed: {}", rendered.join("; "))
            }
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message())
    }
}

impl std::error::Error for ServeError {}

impl From<SpnError> for ServeError {
    fn from(err: SpnError) -> ServeError {
        ServeError::Invalid(err.to_string())
    }
}
