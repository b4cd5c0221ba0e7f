//! `BENCHMARK.json` at the repository root must say what `spec.rs` says.

use benchmark::json::Json;
use benchmark::spec;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to benchmark/");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

#[test]
fn workloads_and_metrics_match_the_code() {
    let doc = contract();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (entry, expected) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(field(entry, "name"), expected.name);
        assert_eq!(field(entry, "why"), expected.why);
        assert!(expected.why.len() <= 200 && !expected.why.contains('\n'));
    }

    let end_to_end = doc.get("end_to_end").and_then(Json::as_array).unwrap();
    assert_eq!(end_to_end.len(), spec::END_TO_END.len());
    for (entry, expected) in end_to_end.iter().zip(&spec::END_TO_END) {
        assert_eq!(field(entry, "name"), expected.name);
        assert_eq!(field(entry, "unit"), expected.unit);
        assert_eq!(field(entry, "better"), expected.better.as_str());
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(expected.bound)
        );
        // No count may get worse by more than a tenth; `setup_s` has the
        // contract's largest bound.
        let widest = if expected.name == "setup_s" {
            0.25
        } else {
            0.10
        };
        assert!(expected.bound <= widest, "{}", expected.name);
    }
    assert!(spec::END_TO_END.iter().any(|m| m.name == "setup_s"));

    let per_layer = doc.get("per_layer").and_then(Json::as_array).unwrap();
    assert_eq!(per_layer.len(), spec::PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (entry, expected) in per_layer.iter().zip(&spec::PER_LAYER) {
        assert_eq!(field(entry, "name"), expected.name);
        assert_eq!(field(entry, "unit"), expected.unit);
        assert_eq!(field(entry, "better"), expected.better.as_str());
        assert_eq!(
            entry.as_object().unwrap().len(),
            3,
            "per-layer metrics have no bound"
        );
    }
}

#[test]
fn names_and_units_obey_the_contracts_character_rules() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(spec::END_TO_END.iter().map(|m| m.name));
    names.extend(spec::PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(name_ok(name), "bad name {name:?}");
    }
    let unique: std::collections::HashSet<&&str> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used once");
    for unit in spec::END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(spec::PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(unit_ok(unit), "bad unit {unit:?}");
    }
}

#[test]
fn the_command_builds_and_runs_the_package_in_paths() {
    let doc = contract();
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|part| part.as_str().unwrap())
        .collect();
    assert_eq!(command.first(), Some(&"cargo"));
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert_eq!(
        command.last(),
        Some(&"--"),
        "the driver's arguments must reach the program"
    );
    let paths = doc.get("paths").and_then(Json::as_array).unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_u64),
        Some(spec::RUN_SECONDS)
    );
}
