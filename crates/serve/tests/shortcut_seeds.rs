//! A shortcut-mode answer does not depend on the seed order. Region
//! selection reads every seed's facts, counterfactual executions
//! included, so the summaries must come from those same executions: a
//! region that runs only under some seed, or only counterfactually, still
//! gets its tuples.

use mujs_serve::{ServeOptions, Server};
use serde_json::Value;
use std::io::Cursor;

/// `f` runs only when `r >= 0.5`; under seed 1 only counterfactually.
const SRC: &str = "var o = {}; function g() { return 1; } \
                   function f() { o.p = g; o.p(); } \
                   var r = Math.random(); if (r >= 0.5) { f(); } var h = o.p;";

/// The PTA row of one shortcut-mode request over `seeds`.
fn pta_row(seeds: &str) -> Value {
    let line = format!(
        r#"{{"op":"analyze","id":1,"src":"{SRC}","seeds":{seeds},"pta_budget":150000,"inject":true,"shortcuts":true}}"#
    );
    let mut out = Vec::new();
    Server::new(ServeOptions::default())
        .handle_stream(Cursor::new(format!("{line}\n")), &mut out)
        .expect("session runs");
    let result: Value = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str::<Value>(l).expect("frame parses"))
        .find(|f| f.get("ev").and_then(Value::as_str) == Some("result"))
        .expect("a result frame");
    result
        .get("report")
        .and_then(|r| r.get("pta"))
        .cloned()
        .expect("the report has a PTA row")
}

#[test]
fn the_call_edge_of_a_counterfactual_region_survives_every_seed_order() {
    for seeds in ["[1]", "[1,2]", "[2,1]"] {
        let row = pta_row(seeds);
        let num = |f: &str| row.get(f).and_then(Value::as_f64);
        assert_eq!(
            (num("reachable_funcs"), num("propagations")),
            (Some(2.0), Some(29.0)),
            "seeds {seeds}: {row:?}"
        );
    }
}
