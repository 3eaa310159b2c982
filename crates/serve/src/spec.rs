//! The job spec: a sweep matrix encoded as one whitespace-free wire
//! token.
//!
//! A `SUBMIT` frame carries the entire job description as a single
//! token (`systems=ncflow+arrow;styles=text;profiles=none;seeds=2`),
//! which this module parses into the *same* [`SweepConfig`] the
//! one-shot CLI builds from the equivalent flags: both apply each
//! field through [`SweepConfig::set_field`], this module with `;`
//! between fields, `key=value` and `+` between list entries. That shared
//! construction is the root of the determinism contract: identical
//! config → identical fingerprint → identical journal bytes, whether
//! the matrix runs via `netrepro sweep` or through the daemon.

use netrepro_core::harness::SweepConfig;
// The value types of the config's fields, which the tests name.
#[cfg(test)]
use netrepro_core::{
    fault::FaultProfile, harness::TopoScale, paper::TargetSystem, prompt::PromptStyle,
};

/// Hard cap on an accepted spec token, below the job-frame cap so an
/// over-long spec is rejected as `payload-too-large` at admission
/// rather than tearing the frame.
pub const MAX_SPEC_LEN: usize = 1024;

/// A spec that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad job spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// A parsed job spec — a thin, canonically-encodable wrapper around
/// the harness's [`SweepConfig`] plus serve-only scheduling fields.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The sweep configuration this job runs.
    pub config: SweepConfig,
    /// Virtual-clock budget for the whole job (`clock=N`; 0 = none).
    /// Checked between scheduler slices against the job's journaled
    /// clock — never wall time — so a deadline'd job's journal prefix
    /// is still byte-identical to the uninterrupted run's prefix.
    pub clock_limit: u64,
}

impl JobSpec {
    /// Parse a spec token. Unknown keys, empty lists, repeated keys
    /// and malformed numbers are all errors; omitted keys keep the
    /// [`SweepConfig::default`] values, as omitted CLI flags do.
    pub fn parse(token: &str) -> Result<JobSpec, SpecError> {
        if token.len() > MAX_SPEC_LEN {
            return Err(SpecError(format!(
                "spec is {} bytes; the cap is {MAX_SPEC_LEN}",
                token.len()
            )));
        }
        let mut config = SweepConfig::default();
        let mut clock_limit = 0u64;
        let mut seen: Vec<&str> = Vec::new();
        for field in token.split(';').filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| SpecError(format!("field {field:?} is not key=value")))?;
            if seen.contains(&key) {
                return Err(SpecError(format!("repeated key {key:?}")));
            }
            seen.push(key);
            if key == "clock" {
                clock_limit =
                    value.parse().map_err(|_| SpecError(format!("bad clock value {value:?}")))?;
            } else {
                config
                    .set_field(key, value.split('+'))
                    .map_err(|e| SpecError(format!("key {key:?}: {e}")))?;
            }
        }
        Ok(JobSpec { config, clock_limit })
    }

    /// Canonical wire token: every field explicit, in
    /// [`SweepConfig::FIELDS`] order, then `clock`. Two specs that parse
    /// to the same config encode identically.
    pub fn wire(&self) -> String {
        let mut wire = String::new();
        for (key, values) in self.config.fields() {
            wire.push_str(&format!("{key}={};", values.join("+")));
        }
        wire.push_str(&format!("clock={}", self.clock_limit));
        wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrepro_core::harness::TaskLimits;

    #[test]
    fn round_trips_canonically() {
        let spec = JobSpec::parse("systems=rps+ap;styles=mono;profiles=light;seeds=2").unwrap();
        let wire = spec.wire();
        assert!(!wire.contains(char::is_whitespace));
        let again = JobSpec::parse(&wire).unwrap();
        assert_eq!(spec, again);
        assert_eq!(again.wire(), wire);
    }

    #[test]
    fn defaults_match_the_cli_flag_defaults() {
        let spec = JobSpec::parse("").unwrap();
        assert_eq!(
            spec.config.systems,
            vec![
                TargetSystem::NcFlow,
                TargetSystem::Arrow,
                TargetSystem::ApKeep,
                TargetSystem::ApVerifier
            ]
        );
        assert_eq!(
            spec.config.styles,
            vec![PromptStyle::ModularText, PromptStyle::ModularPseudocode]
        );
        assert_eq!(spec.config.profiles, vec![FaultProfile::None, FaultProfile::Heavy]);
        assert_eq!(spec.config.scales, vec![TopoScale::Paper]);
        assert_eq!(spec.config.seeds, vec![0, 1, 2]);
        assert_eq!(spec.config.limits, TaskLimits::default());
    }

    #[test]
    fn limits_are_settable() {
        let spec = JobSpec::parse("seeds=1;deadline=100;attempts=2;breaker=5").unwrap();
        assert_eq!(spec.config.limits.deadline_steps, 100);
        assert_eq!(spec.config.limits.max_attempts, 2);
        assert_eq!(spec.config.limits.breaker_threshold, 5);
        let defaults = TaskLimits::default();
        assert_eq!(spec.config.limits.backoff_base, defaults.backoff_base);
        assert_eq!(spec.config.limits.backoff_cap, defaults.backoff_cap);
    }

    #[test]
    fn identical_specs_share_a_fingerprint() {
        let a = JobSpec::parse("systems=rps;styles=mono;profiles=none;seeds=2").unwrap();
        let b = JobSpec::parse(&a.wire()).unwrap();
        assert_eq!(a.config.fingerprint(), b.config.fingerprint());
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "systems=warp",
            "styles=",
            "seeds=0",
            "seeds=abc",
            "systems=rps;systems=ap",
            "scales=ft3",
            "scales=ft12",
            "scales=",
            "colour=blue",
            "noequals",
        ] {
            assert!(JobSpec::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn oversized_specs_are_rejected() {
        let huge = format!("systems={}", "ncflow+".repeat(400));
        assert!(huge.len() > MAX_SPEC_LEN);
        assert!(JobSpec::parse(&huge).is_err());
    }
}
