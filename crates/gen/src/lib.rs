//! # mujs-gen
//!
//! Seeded random generation of *closed, terminating* muJS programs for the
//! property-based soundness harness (Theorem 1): one instrumented run's
//! determinate observations must predict every concrete run, across
//! re-randomized indeterminate inputs.
//!
//! The generated subset deliberately exercises the analysis' interesting
//! machinery — indeterminate sources (`Math.random`, `__indet`),
//! conditionals over them (triggering ÎF1 marking and ĈNTR counterfactual
//! execution), heap reads/writes with static and computed keys, bounded
//! loops, function calls, and try/catch — while structurally guaranteeing
//! termination (loops are counted `for`s, calls form a DAG).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Top-level statements to emit.
    pub top_stmts: usize,
    /// Maximum statement nesting depth.
    pub max_depth: usize,
    /// Number of helper functions (each may only call higher-numbered
    /// ones, so call chains terminate).
    pub n_funcs: usize,
    /// Probability (0..100) that a generated leaf expression is an
    /// indeterminate source.
    pub indet_pct: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            top_stmts: 12,
            max_depth: 3,
            n_funcs: 3,
            indet_pct: 20,
        }
    }
}

/// Generates a program from a seed. Identical seeds yield identical
/// sources.
///
/// # Examples
///
/// ```
/// let src = mujs_gen::generate(42, &mujs_gen::GenConfig::default());
/// assert!(mujs_syntax::parse(&src).is_ok());
/// ```
pub fn generate(seed: u64, cfg: &GenConfig) -> String {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed),
        cfg: cfg.clone(),
        out: String::new(),
        loop_counter: 0,
    };
    g.program();
    g.out
}

const NUM_VARS: usize = 4;
const NUM_OBJS: usize = 3;
const KEYS: [&str; 4] = ["a", "b", "c", "d"];

struct Gen {
    rng: StdRng,
    cfg: GenConfig,
    out: String,
    loop_counter: u32,
}

impl Gen {
    fn program(&mut self) {
        for i in 0..NUM_VARS {
            let _ = writeln!(self.out, "var x{i} = {};", i * 3 + 1);
        }
        for i in 0..NUM_OBJS {
            let _ = writeln!(self.out, "var o{i} = {{ a: {i}, b: {} }};", i + 10);
        }
        let n_funcs = self.cfg.n_funcs;
        for f in 0..n_funcs {
            let _ = writeln!(self.out, "function f{f}(p0, p1) {{");
            let n = 1 + (self.rng.gen::<u32>() % 3) as usize;
            for _ in 0..n {
                self.stmt(1, Some(f));
            }
            let ret = self.expr(Some(f));
            let _ = writeln!(self.out, "return {ret};");
            self.out.push_str("}\n");
        }
        for _ in 0..self.cfg.top_stmts {
            self.stmt(0, None);
        }
        // Make the final state observable.
        for i in 0..NUM_VARS {
            let _ = writeln!(self.out, "console.log(x{i});");
        }
        for i in 0..NUM_OBJS {
            for k in KEYS {
                let _ = writeln!(self.out, "console.log(o{i}.{k});");
            }
        }
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.rng.gen::<u32>() as usize) % n
    }

    fn var(&mut self) -> String {
        format!("x{}", self.pick(NUM_VARS))
    }

    fn obj(&mut self) -> String {
        format!("o{}", self.pick(NUM_OBJS))
    }

    fn key(&mut self) -> &'static str {
        KEYS[self.pick(KEYS.len())]
    }

    /// A side-effect-free (modulo `Math.random` consumption) expression.
    fn expr(&mut self, in_func: Option<usize>) -> String {
        match self.pick(10) {
            0 => format!("{}", self.pick(100)),
            1 | 2 => self.var(),
            3 => {
                if self.rng.gen::<u32>() % 100 < self.cfg.indet_pct {
                    "Math.random()".to_owned()
                } else {
                    format!("{}", self.pick(50))
                }
            }
            4 => {
                let o = self.obj();
                let k = self.key();
                format!("{o}.{k}")
            }
            5 => {
                let a = self.expr_leaf(in_func);
                let b = self.expr_leaf(in_func);
                let op = ["+", "-", "*", "%"][self.pick(4)];
                format!("({a} {op} {b})")
            }
            6 => {
                let a = self.expr_leaf(in_func);
                let b = self.expr_leaf(in_func);
                let op = ["<", "<=", "===", "!=="][self.pick(4)];
                format!("({a} {op} {b})")
            }
            7 => {
                if self.rng.gen::<u32>() % 100 < self.cfg.indet_pct {
                    format!("__indet({})", self.pick(20))
                } else {
                    format!("{}", self.pick(20))
                }
            }
            8 => match in_func {
                Some(_) => "(p0 + p1)".to_owned(),
                None => {
                    let a = self.expr_leaf(None);
                    format!("({a} + 1)")
                }
            },
            _ => {
                let c = self.expr_leaf(in_func);
                let t = self.expr_leaf(in_func);
                let e = self.expr_leaf(in_func);
                format!("({c} ? {t} : {e})")
            }
        }
    }

    fn expr_leaf(&mut self, in_func: Option<usize>) -> String {
        match self.pick(5) {
            0 => format!("{}", self.pick(30)),
            1 => self.var(),
            2 => {
                let o = self.obj();
                let k = self.key();
                format!("{o}.{k}")
            }
            3 if in_func.is_some() => "p0".to_owned(),
            _ => {
                if self.rng.gen::<u32>() % 100 < self.cfg.indet_pct {
                    "Math.random()".to_owned()
                } else {
                    format!("{}", self.pick(9))
                }
            }
        }
    }

    fn stmt(&mut self, depth: usize, in_func: Option<usize>) {
        let choices = if depth >= self.cfg.max_depth { 6 } else { 10 };
        match self.pick(choices) {
            0 | 1 => {
                let v = self.var();
                let e = self.expr(in_func);
                let _ = writeln!(self.out, "{v} = {e};");
            }
            2 => {
                let o = self.obj();
                let k = self.key();
                let e = self.expr(in_func);
                let _ = writeln!(self.out, "{o}.{k} = {e};");
            }
            3 => {
                // Computed key from the fixed pool (possibly indeterminate
                // choice between two keys).
                let o = self.obj();
                let k1 = self.key();
                let k2 = self.key();
                let e = self.expr(in_func);
                let cond = self.expr_leaf(in_func);
                let _ = writeln!(self.out, "{o}[({cond}) ? \"{k1}\" : \"{k2}\"] = {e};");
            }
            4 => {
                let v = self.var();
                let o = self.obj();
                let k = self.key();
                let _ = writeln!(self.out, "{v} = {o}.{k};");
            }
            5 => {
                // Call a helper (only call strictly higher-numbered ones
                // from inside functions, so recursion is impossible).
                let lo = in_func.map(|f| f + 1).unwrap_or(0);
                if lo < self.cfg.n_funcs {
                    let f = lo + self.pick(self.cfg.n_funcs - lo);
                    let v = self.var();
                    let a = self.expr_leaf(in_func);
                    let b = self.expr_leaf(in_func);
                    let _ = writeln!(self.out, "{v} = f{f}({a}, {b});");
                } else {
                    let v = self.var();
                    let e = self.expr(in_func);
                    let _ = writeln!(self.out, "{v} = {e};");
                }
            }
            6 | 7 => {
                let c = self.expr(in_func);
                let _ = writeln!(self.out, "if ({c}) {{");
                let n = 1 + self.pick(2);
                for _ in 0..n {
                    self.stmt(depth + 1, in_func);
                }
                if self.rng.gen() {
                    self.out.push_str("} else {\n");
                    self.stmt(depth + 1, in_func);
                }
                self.out.push_str("}\n");
            }
            8 => {
                let i = self.loop_counter;
                self.loop_counter += 1;
                let bound = 1 + self.pick(3);
                let _ = writeln!(self.out, "for (var L{i} = 0; L{i} < {bound}; L{i}++) {{");
                self.stmt(depth + 1, in_func);
                // Occasionally exit or skip abruptly, possibly under an
                // indeterminate guard.
                if self.pick(3) == 0 {
                    let c = self.expr_leaf(in_func);
                    let kw = if self.rng.gen() { "break" } else { "continue" };
                    let _ = writeln!(self.out, "if ({c}) {{ {kw}; }}");
                }
                self.out.push_str("}\n");
            }
            _ => {
                let c = self.expr_leaf(in_func);
                let v = self.var();
                let payload = self.pick(50);
                let _ = writeln!(
                    self.out,
                    "try {{ if ({c}) {{ throw {payload}; }} {v} = {v} + 1; }} catch (e) {{ {v} = e; }}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_parse() {
        for seed in 0..50 {
            let src = generate(seed, &GenConfig::default());
            mujs_syntax::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        assert_eq!(generate(7, &cfg), generate(7, &cfg));
        assert_ne!(generate(7, &cfg), generate(8, &cfg));
    }

    #[test]
    fn indeterminate_sources_appear() {
        let cfg = GenConfig {
            top_stmts: 40,
            indet_pct: 60,
            ..Default::default()
        };
        let src = generate(3, &cfg);
        assert!(src.contains("Math.random()") || src.contains("__indet"));
    }
}
