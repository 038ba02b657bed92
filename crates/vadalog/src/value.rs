//! Ground values: the constants (and labelled nulls) that populate facts.

use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::fmt;

/// A ground value appearing in a fact.
///
/// Numbers are kept in two representations (`Int`, `Float`); arithmetic
/// promotes to `Float` when either side is a float, mirroring the behaviour
/// of the Vadalog expression language. `Value` implements `Eq`/`Hash` so it
/// can key fact-deduplication maps: floats are compared by their bit
/// patterns (the engine never produces `NaN`: arithmetic yielding `NaN` is
/// reported as an evaluation error instead).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    /// A string constant, interned.
    Str(Symbol),
    /// A 64-bit integer constant.
    Int(i64),
    /// A 64-bit float constant. Never `NaN` inside the engine.
    Float(f64),
    /// A boolean constant.
    Bool(bool),
    /// A labelled null introduced by an existential quantifier. The label is
    /// unique within one chase run.
    Null(u64),
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Str(s) => {
                state.write_u8(0);
                s.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                state.write_u8(2);
                // `0.0 == -0.0`, so both must hash alike.
                state.write_u64(if *f == 0.0 { 0 } else { f.to_bits() });
            }
            Value::Bool(b) => {
                state.write_u8(3);
                state.write_u8(*b as u8);
            }
            Value::Null(n) => {
                state.write_u8(4);
                state.write_u64(*n);
            }
        }
    }
}

impl Value {
    /// Builds a string value, interning `s`.
    pub fn str(s: &str) -> Value {
        Value::Str(Symbol::new(s))
    }

    /// True iff this value is a labelled null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Numeric view of the value, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Compares two values for the builtin comparison operators.
    ///
    /// Numbers compare numerically across `Int`/`Float`. Strings compare
    /// lexicographically. Mixed non-numeric kinds are incomparable and
    /// return `None` (the chase treats a failed comparison as an unmatched
    /// condition rather than an error, like SQL's three-valued logic
    /// collapsing unknown to false).
    pub fn partial_cmp_values(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_str().cmp(b.as_str())),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Equality for the `=` / `!=` builtins: numeric across Int/Float,
    /// structural otherwise.
    pub fn eq_values(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Float(b)) => (*a as f64) == *b,
            (Value::Float(a), Value::Int(b)) => *a == (*b as f64),
            _ => self == other,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{}", s),
            Value::Int(i) => write!(f, "{}", i),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{}", x)
                }
            }
            Value::Bool(b) => write!(f, "{}", b),
            Value::Null(n) => write!(f, "_:n{}", n),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_comparison_crosses_int_float() {
        assert_eq!(
            Value::Int(3).partial_cmp_values(&Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(4.0).partial_cmp_values(&Value::Int(4)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn mixed_kinds_are_incomparable() {
        assert_eq!(Value::str("a").partial_cmp_values(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).partial_cmp_values(&Value::str("t")), None);
    }

    #[test]
    fn eq_values_is_numeric_across_kinds() {
        assert!(Value::Int(5).eq_values(&Value::Float(5.0)));
        assert!(!Value::Int(5).eq_values(&Value::Float(5.1)));
        assert!(Value::str("x").eq_values(&Value::str("x")));
    }

    #[test]
    fn structural_eq_distinguishes_int_and_float() {
        // `PartialEq` (used for fact dedup) is structural: Int(5) and
        // Float(5.0) are different facts, like in typed Datalog engines.
        assert_ne!(Value::Int(5), Value::Float(5.0));
    }

    #[test]
    fn hash_is_consistent_with_eq() {
        let a = Value::str("alpha");
        let b = Value::str("alpha");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nulls_display_distinctly() {
        assert_eq!(Value::Null(7).to_string(), "_:n7");
        assert!(Value::Null(7).is_null());
        assert!(!Value::Int(7).is_null());
    }

    #[test]
    fn float_display_keeps_one_decimal_for_integral() {
        assert_eq!(Value::Float(6.0).to_string(), "6.0");
        assert_eq!(Value::Float(0.55).to_string(), "0.55");
    }

    #[test]
    fn signed_zeros_are_equal_and_hash_alike() {
        // Regression: equal values with different hashes split index
        // postings and fact dedup.
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }
}
