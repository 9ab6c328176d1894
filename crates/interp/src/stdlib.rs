//! Helpers of the native table ([`crate::natives`]): pure string/number
//! functions, argument helpers generic over the value annotation, and the
//! prelude the table installs first.

use crate::coerce;
use crate::domain::{AnnValue, Domain, Flag};
use crate::machine::Machine;
use crate::values::{ObjClass, Value};

/// The start of the native table: built-in flags on the prototypes and
/// the global, the global constants, and `Math`.
pub fn install_prelude<D: Domain>(m: &mut Machine<'_, D>) {
    let g = m.global();
    let p = m.protos;
    for o in [
        p.object, p.function, p.array, p.string, p.number, p.boolean, p.error, g,
    ] {
        m.obj_mut(o).builtin = true;
    }
    m.set_raw(g, "window", Value::Object(g));
    m.set_raw(g, "globalThis", Value::Object(g));
    m.set_raw(g, "undefined", Value::Undefined);
    m.set_raw(g, "NaN", Value::Num(f64::NAN));
    m.set_raw(g, "Infinity", Value::Num(f64::INFINITY));
    let math = m.alloc(ObjClass::Plain, Some(p.object));
    m.obj_mut(math).builtin = true;
    m.set_raw(g, "Math", Value::Object(math));
    m.set_raw(math, "PI", Value::Num(std::f64::consts::PI));
    m.set_raw(math, "E", Value::Num(std::f64::consts::E));
    // `Math.random` is the canonical indeterminate input (§2.1).
    m.register_native("random", math, |m, _, _| {
        Ok(D::V::new(Value::Num(m.random()), D::Flag::INDET))
    });
    m.register_native("floor", math, |_, _, a| Ok(num1(a, f64::floor)));
    m.register_native("ceil", math, |_, _, a| Ok(num1(a, f64::ceil)));
    m.register_native("round", math, |_, _, a| Ok(num1(a, f64::round)));
    m.register_native("abs", math, |_, _, a| Ok(num1(a, f64::abs)));
    m.register_native("sqrt", math, |_, _, a| Ok(num1(a, f64::sqrt)));
    m.register_native("pow", math, |_, _, a| Ok(num2(a, f64::powf)));
    m.register_native("max", math, |_, _, a| {
        Ok(num_fold(a, f64::NEG_INFINITY, f64::max))
    });
    m.register_native("min", math, |_, _, a| {
        Ok(num_fold(a, f64::INFINITY, f64::min))
    });
}

/// A relative `slice` index: negative counts from the end, `NaN` is 0,
/// and the result is clamped to `[0, len]`.
pub fn norm_index(i: f64, len: f64) -> f64 {
    if i.is_nan() {
        0.0
    } else if i < 0.0 {
        (len + i).max(0.0)
    } else {
        i.min(len)
    }
}

/// `String.prototype.charAt`.
pub fn char_at(s: &str, i: f64) -> String {
    if i.is_nan() || i < 0.0 {
        return String::new();
    }
    s.chars()
        .nth(i as usize)
        .map(|c| c.to_string())
        .unwrap_or_default()
}

/// `String.prototype.charCodeAt`.
pub fn char_code_at(s: &str, i: f64) -> f64 {
    if i.is_nan() || i < 0.0 {
        return f64::NAN;
    }
    s.chars()
        .nth(i as usize)
        .map(|c| c as u32 as f64)
        .unwrap_or(f64::NAN)
}

/// `String.prototype.indexOf` (character indices).
pub fn index_of(s: &str, needle: &str) -> f64 {
    match s.find(needle) {
        Some(byte_idx) => s[..byte_idx].chars().count() as f64,
        None => -1.0,
    }
}

/// `String.prototype.lastIndexOf` (character indices).
pub fn last_index_of(s: &str, needle: &str) -> f64 {
    match s.rfind(needle) {
        Some(byte_idx) => s[..byte_idx].chars().count() as f64,
        None => -1.0,
    }
}

/// `String.prototype.substr(start, length)`.
pub fn substr(s: &str, start: f64, len: f64) -> String {
    let n = s.chars().count() as f64;
    let start = if start < 0.0 {
        (n + start).max(0.0)
    } else {
        start.min(n)
    };
    let len = if len.is_nan() { 0.0 } else { len.max(0.0) };
    s.chars()
        .skip(start as usize)
        .take(len.min(n - start) as usize)
        .collect()
}

/// `String.prototype.substring(start, end)` (swaps out-of-order args).
pub fn substring(s: &str, start: f64, end: f64) -> String {
    let n = s.chars().count() as f64;
    let clamp = |x: f64| {
        if x.is_nan() {
            0.0
        } else {
            x.clamp(0.0, n)
        }
    };
    let (mut a, mut b) = (clamp(start), clamp(end));
    if a > b {
        std::mem::swap(&mut a, &mut b);
    }
    s.chars().skip(a as usize).take((b - a) as usize).collect()
}

/// `String.prototype.slice(start, end)` (negative indices from the end).
pub fn str_slice(s: &str, start: f64, end: f64) -> String {
    let n = s.chars().count() as f64;
    let a = norm_index(start, n);
    let b = norm_index(end, n);
    if a >= b {
        return String::new();
    }
    s.chars().skip(a as usize).take((b - a) as usize).collect()
}

/// `String.prototype.split` with a string separator.
pub fn split(s: &str, sep: &str) -> Vec<String> {
    if sep.is_empty() {
        return s.chars().map(|c| c.to_string()).collect();
    }
    s.split(sep).map(str::to_owned).collect()
}

/// `String.prototype.replace` with string pattern (first occurrence only).
pub fn replace_first(s: &str, pat: &str, rep: &str) -> String {
    match s.find(pat) {
        Some(i) => {
            let mut out = String::with_capacity(s.len());
            out.push_str(&s[..i]);
            out.push_str(rep);
            out.push_str(&s[i + pat.len()..]);
            out
        }
        None => s.to_owned(),
    }
}

/// `parseInt` with a radix.
pub fn parse_int(s: &str, radix: u32) -> f64 {
    let t = s.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let (radix, t) = if (radix == 16 || radix == 0) && (t.starts_with("0x") || t.starts_with("0X"))
    {
        (16, &t[2..])
    } else if radix == 0 {
        (10, t)
    } else {
        (radix, t)
    };
    if !(2..=36).contains(&radix) {
        return f64::NAN;
    }
    let digits: String = t.chars().take_while(|c| c.is_digit(radix)).collect();
    if digits.is_empty() {
        return f64::NAN;
    }
    let mut acc = 0.0f64;
    for c in digits.chars() {
        acc = acc * radix as f64 + c.to_digit(radix).expect("checked") as f64;
    }
    if neg {
        -acc
    } else {
        acc
    }
}

/// `parseFloat`.
pub fn parse_float(s: &str) -> f64 {
    let t = s.trim();
    // Take the longest numeric prefix.
    let mut end = 0;
    let bytes = t.as_bytes();
    let mut seen_dot = false;
    let mut seen_e = false;
    let mut i = 0;
    if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
        i += 1;
    }
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => {
                i += 1;
                end = i;
            }
            b'.' if !seen_dot && !seen_e => {
                seen_dot = true;
                i += 1;
            }
            b'e' | b'E' if !seen_e && end > 0 => {
                seen_e = true;
                i += 1;
                if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    if end == 0 {
        return f64::NAN;
    }
    t[..i.min(t.len())]
        .trim_end_matches(['e', 'E', '+', '-'])
        .parse()
        .unwrap_or(f64::NAN)
}

/// `ToNumber` of argument `i` with its annotation; `default` (determinate)
/// when the argument is absent.
pub fn arg_num<V: AnnValue>(args: &[V], i: usize, default: f64) -> (f64, V::Flag) {
    match args.get(i) {
        Some(v) => (coerce::to_number(v.v()).unwrap_or(f64::NAN), v.d()),
        None => (default, V::Flag::DET),
    }
}

/// A unary `Math` function of the first argument.
pub fn num1<V: AnnValue>(args: &[V], f: impl Fn(f64) -> f64) -> V {
    let (n, d) = arg_num(args, 0, f64::NAN);
    V::new(Value::Num(f(n)), d)
}

/// A binary `Math` function of the first two arguments.
pub fn num2<V: AnnValue>(args: &[V], f: impl Fn(f64, f64) -> f64) -> V {
    let (a, da) = arg_num(args, 0, f64::NAN);
    let (b, db) = arg_num(args, 1, f64::NAN);
    V::new(Value::Num(f(a, b)), da.join(db))
}

/// A variadic `Math` fold (`max`/`min`); any `NaN` argument wins.
pub fn num_fold<V: AnnValue>(args: &[V], init: f64, f: impl Fn(f64, f64) -> f64) -> V {
    let mut acc = init;
    let mut d = V::Flag::DET;
    for v in args {
        d = d.join(v.d());
        let n = coerce::to_number(v.v()).unwrap_or(f64::NAN);
        if n.is_nan() {
            return V::new(Value::Num(f64::NAN), d);
        }
        acc = f(acc, n);
    }
    V::new(Value::Num(acc), d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substr_substring_slice_disagree_properly() {
        assert_eq!(substr("abcdef", 1.0, 3.0), "bcd");
        assert_eq!(substring("abcdef", 3.0, 1.0), "bc"); // swapped
        assert_eq!(str_slice("abcdef", -2.0, f64::INFINITY), "ef");
        assert_eq!(substr("abcdef", -2.0, 10.0), "ef");
    }

    #[test]
    fn index_of_variants() {
        assert_eq!(index_of("hello", "ll"), 2.0);
        assert_eq!(index_of("hello", "x"), -1.0);
        assert_eq!(last_index_of("aXbXc", "X"), 3.0);
    }

    #[test]
    fn split_cases() {
        assert_eq!(split("a,b,c", ","), vec!["a", "b", "c"]);
        assert_eq!(split("abc", ""), vec!["a", "b", "c"]);
        assert_eq!(split("abc", "x"), vec!["abc"]);
    }

    #[test]
    fn replace_first_only() {
        assert_eq!(replace_first("a-b-c", "-", "+"), "a+b-c");
        assert_eq!(replace_first("abc", "x", "y"), "abc");
    }

    #[test]
    fn parse_int_radix() {
        assert_eq!(parse_int("42px", 10), 42.0);
        assert_eq!(parse_int("0xff", 16), 255.0);
        assert_eq!(parse_int("0xff", 0), 255.0);
        assert_eq!(parse_int("-7", 10), -7.0);
        assert!(parse_int("zz", 10).is_nan());
    }

    #[test]
    fn parse_float_prefix() {
        assert_eq!(parse_float("3.5abc"), 3.5);
        assert_eq!(parse_float("  -2e2  "), -200.0);
        assert!(parse_float("abc").is_nan());
    }

    #[test]
    fn char_ops() {
        assert_eq!(char_at("abc", 1.0), "b");
        assert_eq!(char_at("abc", 9.0), "");
        assert_eq!(char_code_at("A", 0.0), 65.0);
        assert!(char_code_at("A", 5.0).is_nan());
    }
}
