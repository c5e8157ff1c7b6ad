//! Name-based protocol factory.
//!
//! Experiment binaries and benches refer to protocols by the paper's
//! notation; this module resolves those strings to executable protocols.
//! Accepted forms (case-insensitive):
//!
//! * aliases: `reno`, `cubic`, `scalable`, `scalable-aimd`, `pcc`,
//!   `vegas`, `bbr`, `tfrc`, `highspeed`, `robust-aimd` (the Table 2 instance);
//! * parameterized families: `aimd(a,b)`, `mimd(a,b)`, `bin(a,b,k,l)`,
//!   `cubic(c,b)`, `r-aimd(a,b,eps)` / `robust-aimd(a,b,eps)`,
//!   `vegas(alpha,beta)`.

use crate::{build_protocol, presets, Bbr, HighSpeed, Tfrc, Vegas};
use axcc_core::theory::ProtocolSpec;
use axcc_core::Protocol;
use std::fmt;

/// Error resolving a protocol name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The family or alias is unknown.
    UnknownName(String),
    /// The parameter list could not be parsed.
    BadParameters(String),
    /// The family expects a different number of parameters.
    WrongArity {
        /// Family name as given.
        family: String,
        /// Number of parameters the family expects.
        expected: usize,
        /// Number of parameters supplied.
        got: usize,
    },
    /// Parameters parsed but violate the family's domain.
    OutOfDomain(String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::UnknownName(n) => write!(f, "unknown protocol name: {n:?}"),
            ResolveError::BadParameters(s) => write!(f, "cannot parse parameters in {s:?}"),
            ResolveError::WrongArity {
                family,
                expected,
                got,
            } => {
                write!(f, "{family} expects {expected} parameters, got {got}")
            }
            ResolveError::OutOfDomain(msg) => write!(f, "parameters out of domain: {msg}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Resolve a protocol name (see module docs for the grammar).
///
/// ```
/// use axcc_protocols::registry::resolve;
/// assert_eq!(resolve("reno").unwrap().name(), "AIMD(1,0.5)");
/// assert_eq!(resolve("r-aimd(1,0.8,0.005)").unwrap().name(), "R-AIMD(1,0.8,0.005)");
/// assert!(resolve("sprout").is_err());
/// ```
pub fn resolve(name: &str) -> Result<Box<dyn Protocol>, ResolveError> {
    let s = name.trim().to_ascii_lowercase();
    // Aliases first.
    match s.as_str() {
        "reno" => return Ok(presets::reno()),
        "cubic" => return Ok(presets::cubic()),
        "scalable" | "scalable-mimd" => return Ok(presets::scalable_mimd()),
        "scalable-aimd" => return Ok(presets::scalable_aimd()),
        "pcc" => return Ok(presets::pcc()),
        "vegas" => return Ok(presets::vegas()),
        "robust-aimd" | "r-aimd" => return Ok(presets::robust_aimd(0.01)),
        "bbr" => return Ok(Box::new(Bbr::new())),
        "tfrc" => return Ok(Box::new(Tfrc::new())),
        "highspeed" | "hstcp" => return Ok(Box::new(HighSpeed::new())),
        _ => {}
    }
    // Parameterized form: family(p1,p2,...).
    let (family, p) = split_call(&s)?;
    let expected = match family {
        "aimd" | "mimd" | "cubic" | "vegas" => 2,
        "r-aimd" | "robust-aimd" => 3,
        "bin" => 4,
        _ => return Err(ResolveError::UnknownName(name.to_string())),
    };
    if p.len() != expected {
        return Err(ResolveError::WrongArity {
            family: family.to_string(),
            expected,
            got: p.len(),
        });
    }
    let spec = match family {
        "aimd" => ProtocolSpec::Aimd { a: p[0], b: p[1] },
        "mimd" => ProtocolSpec::Mimd { a: p[0], b: p[1] },
        "cubic" => ProtocolSpec::Cubic { c: p[0], b: p[1] },
        "bin" => ProtocolSpec::Bin {
            a: p[0],
            b: p[1],
            k: p[2],
            l: p[3],
        },
        "vegas" => return guard(&|| Box::new(Vegas::new(p[0], p[1]))),
        // `r-aimd` / `robust-aimd`: the arity match admits no other family.
        _ => ProtocolSpec::RobustAimd {
            a: p[0],
            b: p[1],
            eps: p[2],
        },
    };
    guard(&|| build_protocol(&spec))
}

/// Run a constructor, turning its domain panic into a typed
/// [`ResolveError::OutOfDomain`].
fn guard(f: &dyn Fn() -> Box<dyn Protocol>) -> Result<Box<dyn Protocol>, ResolveError> {
    // tidy-allow: panic-freedom — sanctioned boundary: constructor domain panics become typed OutOfDomain errors for the CLI/service to report.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|e| ResolveError::OutOfDomain(panic_message(e)))
}

/// Split `family(p1,p2,…)` into the family name and parsed parameters.
fn split_call(s: &str) -> Result<(&str, Vec<f64>), ResolveError> {
    let open = s
        .find('(')
        .ok_or_else(|| ResolveError::UnknownName(s.to_string()))?;
    if !s.ends_with(')') {
        return Err(ResolveError::BadParameters(s.to_string()));
    }
    let family = &s[..open];
    let inner = &s[open + 1..s.len() - 1];
    let params: Result<Vec<f64>, _> = inner.split(',').map(|p| p.trim().parse::<f64>()).collect();
    let params = params.map_err(|_| ResolveError::BadParameters(s.to_string()))?;
    Ok((family, params))
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "constructor panicked".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_resolve() {
        for (alias, expect) in [
            ("reno", "AIMD(1,0.5)"),
            ("cubic", "CUBIC(0.4,0.8)"),
            ("scalable", "MIMD(1.01,0.875)"),
            ("scalable-aimd", "AIMD(1,0.875)"),
            ("pcc", "PCC"),
            ("vegas", "Vegas(2,4)"),
            ("robust-aimd", "R-AIMD(1,0.8,0.01)"),
            ("bbr", "BBR"),
            ("tfrc", "TFRC"),
            ("highspeed", "HighSpeed"),
            ("hstcp", "HighSpeed"),
        ] {
            assert_eq!(resolve(alias).unwrap().name(), expect, "{alias}");
        }
    }

    #[test]
    fn parameterized_forms_resolve() {
        assert_eq!(resolve("aimd(2,0.7)").unwrap().name(), "AIMD(2,0.7)");
        assert_eq!(resolve("MIMD(1.05, 0.5)").unwrap().name(), "MIMD(1.05,0.5)");
        assert_eq!(resolve("bin(1,0.5,1,0)").unwrap().name(), "BIN(1,0.5,1,0)");
        assert_eq!(resolve("cubic(0.4,0.8)").unwrap().name(), "CUBIC(0.4,0.8)");
        assert_eq!(
            resolve("r-aimd(1,0.8,0.005)").unwrap().name(),
            "R-AIMD(1,0.8,0.005)"
        );
        assert_eq!(resolve("vegas(2,4)").unwrap().name(), "Vegas(2,4)");
    }

    #[test]
    fn unknown_names_error() {
        assert!(matches!(
            resolve("sprout"),
            Err(ResolveError::UnknownName(_))
        ));
    }

    #[test]
    fn wrong_arity_errors() {
        assert!(matches!(
            resolve("aimd(1)"),
            Err(ResolveError::WrongArity {
                expected: 2,
                got: 1,
                ..
            })
        ));
        assert!(matches!(
            resolve("bin(1,0.5)"),
            Err(ResolveError::WrongArity {
                expected: 4,
                got: 2,
                ..
            })
        ));
    }

    #[test]
    fn bad_parameters_error() {
        assert!(matches!(
            resolve("aimd(one,0.5)"),
            Err(ResolveError::BadParameters(_))
        ));
        assert!(matches!(
            resolve("aimd(1,0.5"),
            Err(ResolveError::BadParameters(_))
        ));
    }

    #[test]
    fn out_of_domain_errors_not_panics() {
        for bad in ["aimd(0,0.5)", "mimd(0.9,0.5)"] {
            match resolve(bad) {
                Err(ResolveError::OutOfDomain(_)) => {}
                Err(other) => panic!("{bad}: wrong error {other}"),
                Ok(_) => panic!("{bad}: should not resolve"),
            }
        }
    }

    #[test]
    fn display_messages_are_informative() {
        let msg = match resolve("aimd(1)") {
            Err(e) => e.to_string(),
            Ok(_) => panic!("should not resolve"),
        };
        assert!(msg.contains("expects 2"), "{msg}");
    }
}
