//! Programs shared by the root integration tests.

/// A copy-ring program for the solver's edge dedupe and propagation
/// around copy cycles.
///
/// `groups` functions each copy a fresh object and their caller's
/// argument through a hub local into `fan` locals. The first `ring` of
/// those copy back into the hub (a copy ring) by `hub = sink = h{i}`, so
/// each ring member's read temp also has an edge to one shared sink.
/// Each function is called with the previous one's result, so sets grow
/// along the chain. The callees are assigned after the calls, so their
/// bodies are generated while propagation runs.
///
/// Each function also loads `pool.m` twice, where `pool` holds six
/// instances of one constructor: every instance re-applies the load to
/// the shared prototype, re-adding the edges out of its `m` property,
/// whose out-list grows by two targets per function. A dynamic store and
/// read feed the ⋆ and unknown-property nodes.
pub fn hub_src(groups: usize, fan: usize, ring: usize) -> String {
    let mut s = String::from(
        "function mk() { return { tag: mk }; }\nvar sink = mk();\n\
         function F() {} F.prototype.m = mk; var pool;\n",
    );
    for _ in 0..6 {
        s.push_str("pool = new F();\n");
    }
    for g in 0..groups {
        let prev = if g == 0 {
            "sink".to_owned()
        } else {
            format!("r{}", g - 1)
        };
        s.push_str(&format!("var r{g} = go{g}({prev});\n"));
    }
    for g in 0..groups {
        s.push_str(&format!(
            "function grp{g}(prev) {{ var hub = {{ tag: mk }};"
        ));
        for i in 0..fan {
            s.push_str(&format!(" var h{i} = hub;"));
        }
        s.push_str(" h0 = prev;");
        for i in 0..ring {
            s.push_str(&format!(" hub = sink = h{i};"));
        }
        s.push_str(" var m0 = pool.m; var m1 = pool.m; return hub; }\n");
    }
    for g in 0..groups {
        s.push_str(&format!("var go{g} = grp{g};\n"));
    }
    s.push_str("var key = somethingUnknown; r0[key] = mk; var smeared = r1[key];\n");
    s.push_str("var t = sink.tag; var made = new t(); var got = made.tag;\n");
    s
}
