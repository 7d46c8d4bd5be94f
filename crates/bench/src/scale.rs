//! Protocol scales.
//!
//! The paper's full protocol (480×480 cells, 25,000 steps, 10 repeats,
//! populations to 102,400) is hours-to-days of compute on a host-parallel
//! substrate. Every harness therefore supports three scales:
//!
//! * `Paper` — the full protocol, parameter-for-parameter;
//! * `Default` — a shape-preserving reduction (same *fill fractions* and
//!   steps-per-row budget on a smaller grid, fewer repeats) that runs in
//!   minutes; EXPERIMENTS.md records which scale produced each number;
//! * `Smoke` — seconds; CI/sanity only.

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper's full protocol.
    Paper,
    /// Shape-preserving reduced protocol (the default).
    #[default]
    Default,
    /// Tiny sanity scale.
    Smoke,
}

/// Conflicting scale flags on one command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleConflict;

impl std::fmt::Display for ScaleConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--paper and --smoke are mutually exclusive; pass at most one scale flag"
        )
    }
}

impl std::error::Error for ScaleConflict {}

impl Scale {
    /// Parse from CLI args (`--paper`, `--smoke`; default otherwise).
    /// Passing both flags is an error — silently preferring `--paper`
    /// used to launch an hours-long run when the caller asked for a
    /// seconds-long one.
    pub fn from_args(args: &[String]) -> Result<Self, ScaleConflict> {
        let paper = args.iter().any(|a| a == "--paper");
        let smoke = args.iter().any(|a| a == "--smoke");
        match (paper, smoke) {
            (true, true) => Err(ScaleConflict),
            (true, false) => Ok(Scale::Paper),
            (false, true) => Ok(Scale::Smoke),
            (false, false) => Ok(Scale::Default),
        }
    }

    /// [`Scale::from_args`] for binaries: exits with a usage message on
    /// conflicting flags instead of panicking.
    pub fn from_args_or_exit(args: &[String]) -> Self {
        Self::from_args(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Short label for file names and table captions.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Default => "default",
            Scale::Smoke => "smoke",
        }
    }
}

/// Parse `--flag value` style options.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Exit with the typed error's message (status 2) when the scale's
/// configuration describes no valid corridor.
pub fn invalid_corridor(e: pedsim_scenario::ScenarioError) -> ! {
    eprintln!("error: invalid paper corridor: {e}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_scales() {
        assert_eq!(Scale::from_args(&v(&["--paper"])), Ok(Scale::Paper));
        assert_eq!(Scale::from_args(&v(&["--smoke"])), Ok(Scale::Smoke));
        assert_eq!(Scale::from_args(&v(&["--part", "a"])), Ok(Scale::Default));
    }

    #[test]
    fn conflicting_scale_flags_are_rejected() {
        // Both orders: the old code silently picked --paper.
        let err = Scale::from_args(&v(&["--paper", "--smoke"])).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        assert!(Scale::from_args(&v(&["--smoke", "--x", "--paper"])).is_err());
    }

    #[test]
    fn parses_values() {
        let args = v(&["--part", "b", "--paper"]);
        assert_eq!(arg_value(&args, "--part").as_deref(), Some("b"));
        assert_eq!(arg_value(&args, "--missing"), None);
    }
}
