//! Rule-body expressions: comparisons and algebraic operators.
//!
//! Vadalog rule bodies may contain *conditions* (comparisons such as
//! `s > p1`) and *assignments* (`l = e1 + e2`). Both are modelled here as
//! trees over variables and constants, evaluated under a substitution.

use crate::error::EvalError;
use crate::symbol::Symbol;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// A comparison operator usable in rule conditions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Surface-syntax spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// Applies the comparison to two values. Incomparable operands make
    /// every operator except `!=` false.
    pub fn apply(self, left: &Value, right: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => left.eq_values(right),
            CmpOp::Ne => !left.eq_values(right),
            _ => match left.partial_cmp_values(right) {
                Some(ord) => matches!(
                    (self, ord),
                    (CmpOp::Gt, Greater)
                        | (CmpOp::Lt, Less)
                        | (CmpOp::Ge, Greater)
                        | (CmpOp::Ge, Equal)
                        | (CmpOp::Le, Less)
                        | (CmpOp::Le, Equal)
                ),
                None => false,
            },
        }
    }
}

/// An arithmetic operator usable in rule expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithOp {
    /// Surface-syntax spelling of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// An algebraic expression over variables and constants.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A constant leaf.
    Const(Value),
    /// A variable leaf, resolved from the current substitution.
    Var(Symbol),
    /// A binary arithmetic node.
    Binary {
        /// The operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
}

/// A substitution from variables to ground values, built by ad-hoc
/// queries ([`crate::query::select`]) and explanations of absences. The
/// engine binds variables positionally instead (see [`crate::row`]).
pub type Bindings = HashMap<Symbol, Value>;

/// Where expression evaluation reads variables: a substitution map or a
/// binding [`Row`](crate::row::Row).
pub trait Env {
    /// The value bound to `var`, if any.
    fn lookup(&self, var: Symbol) -> Option<Value>;
}

impl Env for Bindings {
    fn lookup(&self, var: Symbol) -> Option<Value> {
        self.get(&var).copied()
    }
}

impl Expr {
    /// A variable leaf.
    pub fn var(name: &str) -> Expr {
        Expr::Var(Symbol::new(name))
    }

    /// A constant leaf.
    pub fn constant(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// A binary node.
    pub fn binary(op: ArithOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Evaluates the expression under `env`.
    ///
    /// Arithmetic requires numeric operands; `Int op Int` stays integral
    /// except for division, which always produces a float (the behaviour
    /// business users expect from share arithmetic).
    pub fn eval<E: Env + ?Sized>(&self, env: &E) -> Result<Value, EvalError> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Var(name) => env.lookup(*name).ok_or(EvalError::UnboundVariable(*name)),
            Expr::Binary { op, left, right } => {
                let l = left.eval(env)?;
                let r = right.eval(env)?;
                apply_arith(*op, l, r)
            }
        }
    }

    /// Collects the variables mentioned by the expression into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => out.push(*v),
            Expr::Binary { left, right, .. } => {
                left.collect_vars(out);
                right.collect_vars(out);
            }
        }
    }
}

fn apply_arith(op: ArithOp, l: Value, r: Value) -> Result<Value, EvalError> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => Ok(Value::Int(a.wrapping_add(b))),
            ArithOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
            ArithOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
            ArithOp::Div => {
                if b == 0 {
                    Err(EvalError::DivisionByZero)
                } else {
                    Ok(Value::Float(a as f64 / b as f64))
                }
            }
        },
        _ => {
            let a = l.as_f64().ok_or(EvalError::NonNumericOperand(l))?;
            let b = r.as_f64().ok_or(EvalError::NonNumericOperand(r))?;
            let out = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    a / b
                }
            };
            if out.is_nan() {
                Err(EvalError::NanResult)
            } else {
                Ok(Value::Float(out))
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Quoted like an atom's string constant, so the text parses
            // back to the constant rather than to a variable.
            Expr::Const(Value::Str(s)) => write!(f, "{:?}", s.as_str()),
            Expr::Const(v) => write!(f, "{}", v),
            Expr::Var(v) => write!(f, "{}", v),
            Expr::Binary { op, left, right } => {
                write!(f, "{} {} {}", left, op.as_str(), right)
            }
        }
    }
}

/// A comparison condition `left op right` in a rule body.
#[derive(Clone, PartialEq, Debug)]
pub struct Condition {
    /// The left expression.
    pub left: Expr,
    /// The comparison operator.
    pub op: CmpOp,
    /// The right expression.
    pub right: Expr,
}

impl Condition {
    /// Builds a condition.
    pub fn new(left: Expr, op: CmpOp, right: Expr) -> Condition {
        Condition { left, op, right }
    }

    /// Evaluates the condition under `env`.
    pub fn holds<E: Env + ?Sized>(&self, env: &E) -> Result<bool, EvalError> {
        let l = self.left.eval(env)?;
        let r = self.right.eval(env)?;
        Ok(self.op.apply(&l, &r))
    }

    /// Collects the variables mentioned by the condition into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        self.left.collect_vars(out);
        self.right.collect_vars(out);
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op.as_str(), self.right)
    }
}

/// An assignment `var = expr` in a rule body (non-aggregate).
#[derive(Clone, PartialEq, Debug)]
pub struct Assignment {
    /// The assigned variable.
    pub var: Symbol,
    /// The defining expression.
    pub expr: Expr,
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.var, self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(pairs: &[(&str, Value)]) -> Bindings {
        pairs.iter().map(|(n, v)| (Symbol::new(n), *v)).collect()
    }

    #[test]
    fn comparison_operators_match_semantics() {
        assert!(CmpOp::Gt.apply(&Value::Int(6), &Value::Int(5)));
        assert!(!CmpOp::Gt.apply(&Value::Int(5), &Value::Int(5)));
        assert!(CmpOp::Ge.apply(&Value::Int(5), &Value::Int(5)));
        assert!(CmpOp::Le.apply(&Value::Float(0.5), &Value::Float(0.5)));
        assert!(CmpOp::Ne.apply(&Value::str("a"), &Value::str("b")));
        assert!(CmpOp::Eq.apply(&Value::Int(2), &Value::Float(2.0)));
    }

    #[test]
    fn incomparable_operands_fail_ordering_comparisons() {
        assert!(!CmpOp::Gt.apply(&Value::str("a"), &Value::Int(1)));
        assert!(!CmpOp::Le.apply(&Value::Bool(true), &Value::Int(1)));
        // != is true for incomparable but unequal values.
        assert!(CmpOp::Ne.apply(&Value::str("a"), &Value::Int(1)));
    }

    #[test]
    fn expression_evaluation_promotes_to_float() {
        let e = Expr::binary(ArithOp::Add, Expr::var("x"), Expr::constant(1.5f64));
        let v = e.eval(&b(&[("x", Value::Int(2))])).unwrap();
        assert_eq!(v, Value::Float(3.5));
    }

    #[test]
    fn integer_arithmetic_stays_integral_except_division() {
        let mul = Expr::binary(ArithOp::Mul, Expr::constant(3i64), Expr::constant(4i64));
        assert_eq!(mul.eval(&Bindings::new()).unwrap(), Value::Int(12));
        let div = Expr::binary(ArithOp::Div, Expr::constant(3i64), Expr::constant(4i64));
        assert_eq!(div.eval(&Bindings::new()).unwrap(), Value::Float(0.75));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let div = Expr::binary(ArithOp::Div, Expr::constant(1i64), Expr::constant(0i64));
        assert!(matches!(
            div.eval(&Bindings::new()),
            Err(EvalError::DivisionByZero)
        ));
        let divf = Expr::binary(ArithOp::Div, Expr::constant(1.0f64), Expr::constant(0.0f64));
        assert!(matches!(
            divf.eval(&Bindings::new()),
            Err(EvalError::DivisionByZero)
        ));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let e = Expr::var("zz");
        assert!(matches!(
            e.eval(&Bindings::new()),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn condition_holds_under_bindings() {
        // s > p1 with s=6M, p1=5M  (rule alpha of Ex. 4.3)
        let c = Condition::new(Expr::var("s"), CmpOp::Gt, Expr::var("p1"));
        assert!(c
            .holds(&b(&[("s", Value::Int(6)), ("p1", Value::Int(5))]))
            .unwrap());
        assert!(!c
            .holds(&b(&[("s", Value::Int(4)), ("p1", Value::Int(5))]))
            .unwrap());
    }

    #[test]
    fn collect_vars_walks_the_tree() {
        let e = Expr::binary(
            ArithOp::Add,
            Expr::var("a"),
            Expr::binary(ArithOp::Mul, Expr::var("b"), Expr::constant(2i64)),
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        let names: Vec<_> = vars.iter().map(|v| v.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn display_round_trip_is_readable() {
        let c = Condition::new(Expr::var("ts"), CmpOp::Gt, Expr::constant(0.5f64));
        assert_eq!(c.to_string(), "ts > 0.5");
    }

    #[test]
    fn non_numeric_arithmetic_is_an_error() {
        let e = Expr::binary(ArithOp::Add, Expr::constant("a"), Expr::constant(1i64));
        assert!(matches!(
            e.eval(&Bindings::new()),
            Err(EvalError::NonNumericOperand(_))
        ));
    }
}
