//! `BENCHMARK.json` against the catalog: the file the driver reads and
//! the names the binary prints must not drift apart.

use crate::catalog::{self, Metric};
use crate::report::{Ctx, RunArgs};
use std::collections::BTreeSet;

/// Just enough JSON to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.at], c, "at byte {}", self.at);
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.s[self.at]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.at;
        while self.s[self.at] != b'"' {
            assert_ne!(self.s[self.at], b'\\', "no escapes in BENCHMARK.json");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.s[start..self.at - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.at;
                while self.at < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.s[start..self.at]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}"))),
                }
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.at, p.s.len(), "trailing bytes");
    v
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number"),
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_name_and_unit_fits_the_contract_and_is_used_once() {
    let mut seen = BTreeSet::new();
    let names = catalog::WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(catalog::END_TO_END.iter().map(|m| m.name))
        .chain(catalog::PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    for m in catalog::END_TO_END.iter().chain(catalog::PER_LAYER) {
        assert!(valid_unit(m.unit), "{} has unit {}", m.name, m.unit);
    }
    for (name, why) in catalog::WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
    }
    assert!((2..=8).contains(&catalog::WORKLOADS.len()));
    assert!((1..=16).contains(&catalog::END_TO_END.len()));
    assert!((1..=128).contains(&catalog::PER_LAYER.len()));
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let j = benchmark_json();
    assert_eq!(
        j.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(j.get("run_seconds").num(), crate::DEFAULT_SECONDS);
    let paths: Vec<&str> = j.get("paths").items().iter().map(Json::str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = j.get("command").items().iter().map(Json::str).collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
}

fn assert_metrics_match(listed: &Json, catalog: &[Metric], gated: bool) {
    let listed = listed.items();
    assert_eq!(listed.len(), catalog.len());
    for (j, m) in listed.iter().zip(catalog) {
        let mut keys = vec!["name", "unit", "better"];
        if gated {
            keys.push("bound");
        }
        assert_eq!(j.keys(), keys, "{}", m.name);
        assert_eq!(j.get("name").str(), m.name);
        assert_eq!(j.get("unit").str(), m.unit, "{}", m.name);
        assert_eq!(j.get("better").str(), m.better.as_str(), "{}", m.name);
        if gated {
            let bound = j.get("bound").num();
            assert_eq!(Some(bound), m.bound, "{}", m.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        } else {
            assert_eq!(m.bound, None, "{}", m.name);
        }
    }
}

#[test]
fn benchmark_json_lists_what_the_catalog_lists() {
    let j = benchmark_json();
    let workloads = j.get("workloads").items();
    assert_eq!(workloads.len(), catalog::WORKLOADS.len());
    for (listed, (name, why)) in workloads.iter().zip(catalog::WORKLOADS) {
        assert_eq!(listed.keys(), ["name", "why"]);
        assert_eq!(listed.get("name").str(), *name);
        assert_eq!(listed.get("why").str(), *why);
    }
    assert_metrics_match(j.get("end_to_end"), catalog::END_TO_END, true);
    assert_metrics_match(j.get("per_layer"), catalog::PER_LAYER, false);
    let setup = catalog::find("setup_s").expect("the contract asks for setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = catalog::END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "set-up time has the largest bound"
    );
}

fn ctx(trace: bool) -> Ctx {
    Ctx::new(RunArgs {
        workload: "char_chip".to_string(),
        seed: 1,
        seconds: 1.0,
        trace,
        quick: true,
    })
}

fn printed_names(result: &str) -> Vec<String> {
    let j = parse(result);
    assert_eq!(j.keys(), ["correct", "attempted", "failed", "metrics"]);
    let metrics = j.get("metrics");
    for key in metrics.keys() {
        assert_eq!(metrics.get(key).keys(), ["value", "unit"]);
    }
    metrics.keys().into_iter().map(str::to_string).collect()
}

#[test]
fn the_result_line_prints_the_catalog_names_and_nothing_else() {
    // Traced: every per-layer metric, zero where the layer did no work.
    let mut traced = ctx(true);
    traced.set("host.nproc", 2.0);
    traced.check("a gate", true);
    let names = printed_names(&traced.result_json().unwrap());
    let expected: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);

    // Untraced: every end-to-end metric or no result at all.
    let mut untraced = ctx(false);
    untraced.check("a gate", false);
    assert_eq!(untraced.result_json(), None);
    for m in catalog::END_TO_END {
        untraced.set(m.name, 1.5);
    }
    let result = untraced.result_json().unwrap();
    let expected: Vec<&str> = catalog::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(printed_names(&result), expected);
    let j = parse(&result);
    assert_eq!(j.get("correct"), &Json::Bool(false));
    assert_eq!(j.get("failed").num(), 1.0);
    assert_eq!(j.get("metrics").get("setup_s").get("unit").str(), "s");
}
