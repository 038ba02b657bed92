//! Parser for the Vadalog surface syntax.
//!
//! Grammar (statements end with `.`):
//!
//! ```text
//! statement := [label ":"] body "->" head "."     rule
//!            | atom "."                            ground fact
//! body      := item ("," item)*
//! item      := "not" atom | atom | var "=" agg "(" expr ")"
//!            | var "=" expr | expr cmp expr
//! head      := atom | "!"
//! atom      := pred "(" term ("," term)* ")"
//! term      := var | number | string | "true" | "false"
//! agg       := "sum" | "prod" | "min" | "max" | "count"
//! cmp       := ">" | "<" | ">=" | "<=" | "==" | "!="
//! ```
//!
//! Identifiers inside atom argument lists are variables; string constants
//! must be quoted. Comments run from `%` or `//` to end of line.

mod lexer;

pub use lexer::{tokenize, Token, TokenKind};

use crate::atom::{Atom, Fact};
use crate::error::{ParseError, ProgramError};
use crate::expr::{ArithOp, CmpOp, Condition, Expr};
use crate::program::Program;
use crate::rule::{AggFunc, Head, Literal, Rule};
use crate::symbol::Symbol;
use crate::term::Term;
use crate::value::Value;

/// The result of parsing a program text: validated rules plus any ground
/// facts declared inline.
#[derive(Clone, Debug)]
pub struct ParsedProgram {
    /// The validated rule set.
    pub program: Program,
    /// Ground facts declared in the text.
    pub facts: Vec<Fact>,
}

/// Errors from parsing or subsequent validation.
#[derive(Debug)]
pub enum ParseOrValidateError {
    /// Syntax error.
    Parse(ParseError),
    /// The parsed rules failed validation.
    Validate(ProgramError),
}

impl std::fmt::Display for ParseOrValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseOrValidateError::Parse(e) => write!(f, "{}", e),
            ParseOrValidateError::Validate(e) => write!(f, "{}", e),
        }
    }
}

impl std::error::Error for ParseOrValidateError {}

impl From<ParseError> for ParseOrValidateError {
    fn from(e: ParseError) -> Self {
        ParseOrValidateError::Parse(e)
    }
}

impl From<ProgramError> for ParseOrValidateError {
    fn from(e: ProgramError) -> Self {
        ParseOrValidateError::Validate(e)
    }
}

/// Parses and validates a program text.
pub fn parse_program(input: &str) -> Result<ParsedProgram, ParseOrValidateError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let (rules, facts) = p.statements()?;
    let program = Program::new(rules)?;
    Ok(ParsedProgram { program, facts })
}

/// Maximum nesting depth of expressions (`(((...)))`, `----x`). The
/// recursive-descent expression grammar recurses once per nesting level;
/// without a cap, a few thousand bytes of `(` from an untrusted program
/// would overflow the stack — an abort no caller can catch. 128 levels is
/// far beyond any legitimate arithmetic expression.
const MAX_EXPR_DEPTH: u32 = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current expression-nesting depth, guarded against
    /// [`MAX_EXPR_DEPTH`] in the one funnel both recursion paths share
    /// ([`Parser::atom_expr`]).
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let t = &self.tokens[self.pos];
        ParseError {
            line: t.line,
            column: t.column,
            message: message.into(),
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), ParseError> {
        if self.peek() == &kind {
            self.next();
            Ok(())
        } else {
            Err(self.error(format!("expected {}", what)))
        }
    }

    fn statements(&mut self) -> Result<(Vec<Rule>, Vec<Fact>), ParseError> {
        let mut rules = Vec::new();
        let mut facts = Vec::new();
        while self.peek() != &TokenKind::Eof {
            self.statement(&mut rules, &mut facts)?;
        }
        Ok((rules, facts))
    }

    fn statement(
        &mut self,
        rules: &mut Vec<Rule>,
        facts: &mut Vec<Fact>,
    ) -> Result<(), ParseError> {
        // Optional label: ident ':' not followed by '('.
        let mut label: Option<String> = None;
        if let (TokenKind::Ident(name), TokenKind::Colon) = (self.peek(), self.peek2()) {
            label = Some(name.clone());
            self.next();
            self.next();
        }

        // A statement that is a single all-ground atom followed by '.' is
        // a fact (only without a label).
        if label.is_none() {
            if let Some(fact) = self.try_fact()? {
                facts.push(fact);
                return Ok(());
            }
        }

        let mut body: Vec<Literal> = Vec::new();
        let mut conditions = Vec::new();
        let mut assignments = Vec::new();
        let mut aggregate = None;

        loop {
            self.body_item(&mut body, &mut conditions, &mut assignments, &mut aggregate)?;
            match self.peek() {
                TokenKind::Comma => {
                    self.next();
                }
                TokenKind::Arrow => break,
                _ => return Err(self.error("expected `,` or `->`")),
            }
        }
        self.expect(TokenKind::Arrow, "`->`")?;

        let head = if self.peek() == &TokenKind::Bang {
            self.next();
            Head::Falsum
        } else {
            Head::Atom(self.atom()?)
        };
        self.expect(TokenKind::Dot, "`.`")?;

        let label = label.unwrap_or_else(|| format!("r{}", rules.len() + 1));
        rules.push(Rule {
            label,
            body,
            conditions,
            assignments,
            aggregate,
            head,
        });
        Ok(())
    }

    /// Tries to parse a ground fact `pred(c1,...,cn).`; backtracks and
    /// returns `None` if the statement is not a fact.
    fn try_fact(&mut self) -> Result<Option<Fact>, ParseError> {
        let start = self.pos;
        let TokenKind::Ident(pred) = self.peek().clone() else {
            return Ok(None);
        };
        if self.peek2() != &TokenKind::LParen {
            return Ok(None);
        }
        self.next();
        self.next();
        let mut values = Vec::new();
        if self.peek() == &TokenKind::RParen {
            self.next();
            if self.peek() == &TokenKind::Dot {
                self.next();
                return Ok(Some(Fact::new(&pred, values)));
            }
            self.pos = start;
            return Ok(None);
        }
        loop {
            match self.peek().clone() {
                TokenKind::Str(s) => {
                    values.push(Value::str(&s));
                    self.next();
                }
                TokenKind::Int(i) => {
                    values.push(Value::Int(i));
                    self.next();
                }
                TokenKind::Float(f) => {
                    values.push(Value::Float(f));
                    self.next();
                }
                TokenKind::Minus => {
                    self.next();
                    match self.peek().clone() {
                        TokenKind::Int(i) => {
                            values.push(Value::Int(-i));
                            self.next();
                        }
                        TokenKind::Float(f) => {
                            values.push(Value::Float(-f));
                            self.next();
                        }
                        _ => {
                            self.pos = start;
                            return Ok(None);
                        }
                    }
                }
                TokenKind::Ident(w) if w == "true" || w == "false" => {
                    values.push(Value::Bool(w == "true"));
                    self.next();
                }
                _ => {
                    // Not ground: backtrack, let rule parsing handle it.
                    self.pos = start;
                    return Ok(None);
                }
            }
            match self.peek() {
                TokenKind::Comma => {
                    self.next();
                }
                TokenKind::RParen => {
                    self.next();
                    break;
                }
                _ => {
                    self.pos = start;
                    return Ok(None);
                }
            }
        }
        if self.peek() == &TokenKind::Dot {
            self.next();
            Ok(Some(Fact::new(&pred, values)))
        } else {
            self.pos = start;
            Ok(None)
        }
    }

    fn body_item(
        &mut self,
        body: &mut Vec<Literal>,
        conditions: &mut Vec<Condition>,
        assignments: &mut Vec<crate::expr::Assignment>,
        aggregate: &mut Option<crate::rule::Aggregate>,
    ) -> Result<(), ParseError> {
        // `not atom`
        if let TokenKind::Ident(w) = self.peek() {
            if w == "not" && matches!(self.peek2(), TokenKind::Ident(_)) {
                self.next();
                let atom = self.atom()?;
                body.push(Literal::neg(atom));
                return Ok(());
            }
        }
        // atom
        if matches!(self.peek(), TokenKind::Ident(_)) && self.peek2() == &TokenKind::LParen {
            let atom = self.atom()?;
            body.push(Literal::pos(atom));
            return Ok(());
        }
        // var '=' (aggregate | expr)
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.peek2() == &TokenKind::Assign {
                self.next();
                self.next();
                if let TokenKind::Ident(func) = self.peek().clone() {
                    if let Some(agg_func) = agg_func(&func) {
                        if self.peek2() == &TokenKind::LParen {
                            if aggregate.is_some() {
                                return Err(self.error("at most one aggregation per rule"));
                            }
                            self.next(); // func
                            self.next(); // (
                            let input = self.expr()?;
                            self.expect(TokenKind::RParen, "`)`")?;
                            *aggregate = Some(crate::rule::Aggregate {
                                func: agg_func,
                                result: Symbol::new(&name),
                                input,
                            });
                            return Ok(());
                        }
                    }
                }
                let expr = self.expr()?;
                assignments.push(crate::expr::Assignment {
                    var: Symbol::new(&name),
                    expr,
                });
                return Ok(());
            }
        }
        // condition: expr cmp expr
        let left = self.expr()?;
        let op = match self.peek() {
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Ge => CmpOp::Ge,
            TokenKind::Le => CmpOp::Le,
            TokenKind::EqEq => CmpOp::Eq,
            TokenKind::NotEq => CmpOp::Ne,
            _ => return Err(self.error("expected a comparison operator")),
        };
        self.next();
        let right = self.expr()?;
        conditions.push(Condition::new(left, op, right));
        Ok(())
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let TokenKind::Ident(pred) = self.peek().clone() else {
            return Err(self.error("expected a predicate name"));
        };
        self.next();
        self.expect(TokenKind::LParen, "`(`")?;
        let mut terms = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                terms.push(self.term()?);
                match self.peek() {
                    TokenKind::Comma => {
                        self.next();
                    }
                    TokenKind::RParen => break,
                    _ => return Err(self.error("expected `,` or `)` in atom")),
                }
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(Atom {
            predicate: Symbol::new(&pred),
            terms,
        })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(w) if w == "true" => {
                self.next();
                Ok(Term::constant(true))
            }
            TokenKind::Ident(w) if w == "false" => {
                self.next();
                Ok(Term::constant(false))
            }
            TokenKind::Ident(name) => {
                self.next();
                Ok(Term::var(&name))
            }
            TokenKind::Int(i) => {
                self.next();
                Ok(Term::constant(i))
            }
            TokenKind::Float(f) => {
                self.next();
                Ok(Term::constant(f))
            }
            TokenKind::Str(s) => {
                self.next();
                Ok(Term::Const(Value::str(&s)))
            }
            TokenKind::Minus => {
                self.next();
                match self.peek().clone() {
                    TokenKind::Int(i) => {
                        self.next();
                        Ok(Term::constant(-i))
                    }
                    TokenKind::Float(f) => {
                        self.next();
                        Ok(Term::constant(-f))
                    }
                    _ => Err(self.error("expected a number after `-`")),
                }
            }
            _ => Err(self.error("expected a term")),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => ArithOp::Add,
                TokenKind::Minus => ArithOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.mul_expr()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.atom_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => ArithOp::Mul,
                TokenKind::Slash => ArithOp::Div,
                _ => break,
            };
            self.next();
            let right = self.atom_expr()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn atom_expr(&mut self) -> Result<Expr, ParseError> {
        // Both recursion paths of the expression grammar (`(`→expr and
        // unary minus) pass through here, so this single guard bounds the
        // parser's stack use on any input.
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.error("expression nesting too deep"));
        }
        self.depth += 1;
        let result = self.atom_expr_inner();
        self.depth -= 1;
        result
    }

    fn atom_expr_inner(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.next();
                Ok(Expr::constant(i))
            }
            TokenKind::Float(f) => {
                self.next();
                Ok(Expr::constant(f))
            }
            TokenKind::Str(s) => {
                self.next();
                Ok(Expr::Const(Value::str(&s)))
            }
            TokenKind::Ident(name) => {
                self.next();
                Ok(Expr::var(&name))
            }
            TokenKind::Minus => {
                self.next();
                let inner = self.atom_expr()?;
                Ok(Expr::binary(ArithOp::Sub, Expr::constant(0i64), inner))
            }
            TokenKind::LParen => {
                self.next();
                let e = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            _ => Err(self.error("expected an expression")),
        }
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    match name {
        "sum" => Some(AggFunc::Sum),
        "prod" => Some(AggFunc::Prod),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        "count" => Some(AggFunc::Count),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_company_control_program() {
        let text = r#"
            % Sec. 5 company control
            o1: own(x, y, s), s > 0.5 -> control(x, y).
            o2: company(x) -> control(x, x).
            o3: control(x, z), own(z, y, s), ts = sum(s), ts > 0.5 -> control(x, y).
        "#;
        let parsed = parse_program(text).unwrap();
        assert_eq!(parsed.program.len(), 3);
        let (_, o3) = parsed.program.rule_by_label("o3").unwrap();
        assert!(o3.has_aggregate());
        assert_eq!(o3.conditions.len(), 1);
        assert_eq!(o3.positive_body().count(), 2);
    }

    #[test]
    fn parses_inline_facts() {
        let text = r#"
            own("A", "B", 0.6).
            company("A").
            shock("A", 15).
            temp("X", -3).
            o1: own(x, y, s), s > 0.5 -> control(x, y).
        "#;
        let parsed = parse_program(text).unwrap();
        assert_eq!(parsed.facts.len(), 4);
        assert_eq!(parsed.facts[0].predicate, Symbol::new("own"));
        assert_eq!(parsed.facts[3].values[1], Value::Int(-3));
    }

    #[test]
    fn parses_head_constants_and_strings() {
        let text = r#"
            o5: default(d), long_term_debts(d, c, v), el = sum(v) -> risk(c, el, "long").
        "#;
        let parsed = parse_program(text).unwrap();
        let rule = &parsed.program.rules()[0];
        let head = rule.head.atom().unwrap();
        assert_eq!(head.terms[2], Term::Const(Value::str("long")));
    }

    #[test]
    fn parses_negation_and_constraints() {
        let text = r#"
            r1: own(x, y, s), not excluded(x) -> candidate(x, y).
            c1: own(x, x, s) -> !.
        "#;
        let parsed = parse_program(text).unwrap();
        assert_eq!(parsed.program.rules()[0].negated_body().count(), 1);
        assert!(parsed.program.rules()[1].is_constraint());
    }

    #[test]
    fn parses_arithmetic_assignments_with_precedence() {
        let text = "r: p(x, y), z = x + y * 2 -> q(z).";
        let parsed = parse_program(text).unwrap();
        let rule = &parsed.program.rules()[0];
        assert_eq!(rule.assignments.len(), 1);
        // x + (y * 2). The panic below is a test assertion, not a parser
        // code path: production parsing never panics on malformed input
        // (see the parser_fuzz integration tests), and this module's only
        // panic lives inside #[cfg(test)].
        let Expr::Binary { op, right, .. } = &rule.assignments[0].expr else {
            panic!("expected binary expression");
        };
        assert_eq!(*op, ArithOp::Add);
        assert!(matches!(
            **right,
            Expr::Binary {
                op: ArithOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn auto_labels_are_assigned() {
        let text = "p(x) -> q(x). q(x) -> r(x).";
        let parsed = parse_program(text).unwrap();
        assert_eq!(parsed.program.rules()[0].label, "r1");
        assert_eq!(parsed.program.rules()[1].label, "r2");
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let err = parse_program("o1: own(x, y -> control(x).").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("parse error"), "got: {msg}");
    }

    #[test]
    fn validation_errors_surface() {
        // Condition over an unbound variable.
        let err = parse_program("r: p(x), zz > 1 -> q(x).").unwrap_err();
        assert!(matches!(err, ParseOrValidateError::Validate(_)));
    }

    #[test]
    fn equality_condition_uses_double_equals() {
        let text = r#"r: risk(c, e, t), t == "long" -> long_risk(c, e)."#;
        let parsed = parse_program(text).unwrap();
        assert_eq!(parsed.program.rules()[0].conditions.len(), 1);
    }

    /// Regression: a condition printed a string constant unquoted, so
    /// `t == "long"` printed as `t == long` and parsed back as a
    /// comparison with a variable, which validation rejects.
    #[test]
    fn string_constants_in_conditions_print_quoted() {
        let text = r#"r: risk(c, e, t), t == "long", m = e + 1, m != "x" -> long_risk(c, e)."#;
        let program = parse_program(text).unwrap().program;
        let printed = program.to_string();
        assert!(printed.contains(r#"t == "long""#), "{printed}");
        let reparsed = parse_program(&printed).unwrap().program;
        assert_eq!(program.rules(), reparsed.rules());
    }

    #[test]
    fn stress_test_program_round_trips() {
        let text = r#"
            o4: shock(f, s), has_capital(f, p1), s > p1 -> default(f).
            o5: default(d), long_term_debts(d, c, v), el = sum(v) -> risk(c, el, "long").
            o6: default(d), short_term_debts(d, c, v), es = sum(v) -> risk(c, es, "short").
            o7: risk(c, e, t), has_capital(c, p2), l = sum(e), l > p2 -> default(c).
        "#;
        let parsed = parse_program(text).unwrap();
        assert_eq!(parsed.program.len(), 4);
        for label in ["o4", "o5", "o6", "o7"] {
            assert!(parsed.program.rule_by_label(label).is_some());
        }
    }
}
