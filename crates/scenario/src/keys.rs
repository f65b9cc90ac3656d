//! The scenario-file parameter vocabulary: kebab-case keys mapped onto
//! [`Params`] fields.
//!
//! One table drives everything — base-parameter assignment, sweep-axis
//! resolution, and the error message listing valid keys — so a key
//! cannot be settable but not sweepable by accident. Layout counts
//! (`domains`, `apps`, …) validate integrality here; everything else is
//! range-checked later by [`Params::validate`] over the composed points.

use itua_core::params::{ManagementScheme, Params};

/// Setter signature: applies one numeric value to one field.
type Setter = fn(&mut Params, f64) -> Result<(), String>;

fn int_field(v: f64, what: &str) -> Result<usize, String> {
    if v.fract() != 0.0 || !(1.0..=1e9).contains(&v) {
        return Err(format!(
            "{what} must be a positive integer, got {}",
            compact(v)
        ));
    }
    Ok(v as usize)
}

/// `v` as an error message prints it: in plain decimals for zero and
/// magnitudes from 10⁻⁴ up to 10¹⁶, in scientific notation beyond
/// (`1e300`), so a hostile value cannot flood the line with digits.
pub(crate) fn compact(v: f64) -> String {
    if v == 0.0 || (1e-4..1e16).contains(&v.abs()) {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

macro_rules! rate_setter {
    ($field:ident) => {
        |p: &mut Params, v: f64| {
            p.$field = v;
            Ok(())
        }
    };
}

/// Every numeric parameter key a scenario file may set or sweep.
pub const NUMERIC_KEYS: &[(&str, Setter)] = &[
    ("domains", |p, v| {
        p.num_domains = int_field(v, "domains")?;
        Ok(())
    }),
    ("hosts-per-domain", |p, v| {
        p.hosts_per_domain = int_field(v, "hosts-per-domain")?;
        Ok(())
    }),
    ("apps", |p, v| {
        p.num_apps = int_field(v, "apps")?;
        Ok(())
    }),
    ("reps-per-app", |p, v| {
        p.reps_per_app = int_field(v, "reps-per-app")?;
        Ok(())
    }),
    ("base-attack-rate", rate_setter!(base_attack_rate)),
    ("attack-weight-host", rate_setter!(attack_weight_host)),
    ("attack-weight-replica", rate_setter!(attack_weight_replica)),
    ("attack-weight-manager", rate_setter!(attack_weight_manager)),
    ("false-alarm-rate", rate_setter!(false_alarm_rate)),
    ("effective-rate-factor", rate_setter!(effective_rate_factor)),
    ("detect-replica", rate_setter!(detect_replica)),
    ("detect-manager", rate_setter!(detect_manager)),
    ("ids-rate", rate_setter!(ids_rate)),
    ("misbehave-rate", rate_setter!(misbehave_rate)),
    ("spread-rate-domain", rate_setter!(spread_rate_domain)),
    ("spread-rate-system", rate_setter!(spread_rate_system)),
    ("spread-effect-domain", rate_setter!(spread_effect_domain)),
    ("spread-effect-system", rate_setter!(spread_effect_system)),
    (
        "host-corruption-multiplier",
        rate_setter!(host_corruption_multiplier),
    ),
];

/// Applies `key = value` to `p`. `Err` carries a message naming the key
/// or, for an unknown key, the full vocabulary.
pub fn set_numeric(p: &mut Params, key: &str, value: f64) -> Result<(), String> {
    match NUMERIC_KEYS.iter().find(|(k, _)| *k == key) {
        Some((_, set)) => set(p, value),
        None => Err(format!(
            "unknown parameter key '{key}' (valid keys: {})",
            key_list()
        )),
    }
}

/// Whether `key` names a sweepable numeric parameter.
pub fn is_numeric_key(key: &str) -> bool {
    NUMERIC_KEYS.iter().any(|(k, _)| *k == key)
}

/// Comma-separated vocabulary, for error messages.
pub fn key_list() -> String {
    NUMERIC_KEYS
        .iter()
        .map(|(k, _)| *k)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses a management-scheme value (`domain-exclusion` /
/// `host-exclusion`).
pub fn parse_scheme(value: &str) -> Result<ManagementScheme, String> {
    match value {
        "domain-exclusion" => Ok(ManagementScheme::DomainExclusion),
        "host-exclusion" => Ok(ManagementScheme::HostExclusion),
        other => Err(format!(
            "unknown scheme '{other}' (expected 'domain-exclusion' or 'host-exclusion')"
        )),
    }
}

/// Renders a scheme back to its scenario-file value.
pub fn scheme_value(scheme: ManagementScheme) -> &'static str {
    match scheme {
        ManagementScheme::DomainExclusion => "domain-exclusion",
        ManagementScheme::HostExclusion => "host-exclusion",
    }
}

/// Human label for a scheme, used as the series name of per-scheme
/// sweeps (matches the labels of the shipped Figure 5 study).
pub fn scheme_label(scheme: ManagementScheme) -> &'static str {
    match scheme {
        ManagementScheme::DomainExclusion => "Domain exclusion",
        ManagementScheme::HostExclusion => "Host exclusion",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_sets_its_field() {
        let mut p = Params::default();
        set_numeric(&mut p, "domains", 6.0).unwrap();
        set_numeric(&mut p, "hosts-per-domain", 2.0).unwrap();
        set_numeric(&mut p, "apps", 3.0).unwrap();
        set_numeric(&mut p, "reps-per-app", 5.0).unwrap();
        set_numeric(&mut p, "spread-rate-domain", 4.5).unwrap();
        set_numeric(&mut p, "host-corruption-multiplier", 5.0).unwrap();
        assert_eq!(p.num_domains, 6);
        assert_eq!(p.hosts_per_domain, 2);
        assert_eq!(p.num_apps, 3);
        assert_eq!(p.reps_per_app, 5);
        assert_eq!(p.spread_rate_domain, 4.5);
        assert_eq!(p.host_corruption_multiplier, 5.0);
        p.validate().unwrap();
    }

    #[test]
    fn layout_keys_reject_non_integers() {
        let mut p = Params::default();
        assert!(set_numeric(&mut p, "domains", 2.5).is_err());
        assert!(set_numeric(&mut p, "apps", 0.0).is_err());
        assert!(set_numeric(&mut p, "reps-per-app", -1.0).is_err());
    }

    #[test]
    fn unknown_key_lists_the_vocabulary() {
        let mut p = Params::default();
        let err = set_numeric(&mut p, "attack-rate", 1.0).unwrap_err();
        assert!(err.contains("unknown parameter key"));
        assert!(err.contains("base-attack-rate"));
        assert!(!is_numeric_key("attack-rate"));
        assert!(is_numeric_key("ids-rate"));
    }

    #[test]
    fn numbers_in_messages_stay_short() {
        assert_eq!(compact(2.0), "2");
        assert_eq!(compact(0.5), "0.5");
        assert_eq!(compact(0.0), "0");
        assert_eq!(compact(1e300), "1e300");
        assert_eq!(compact(-2.5e-7), "-2.5e-7");
        assert_eq!(compact(f64::INFINITY), "inf");
        let err = set_numeric(&mut Params::default(), "domains", 1e300).unwrap_err();
        assert!(err.ends_with("got 1e300"), "{err}");
    }

    #[test]
    fn scheme_round_trips() {
        for scheme in [
            ManagementScheme::DomainExclusion,
            ManagementScheme::HostExclusion,
        ] {
            assert_eq!(parse_scheme(scheme_value(scheme)).unwrap(), scheme);
        }
        assert!(parse_scheme("none").is_err());
    }
}
