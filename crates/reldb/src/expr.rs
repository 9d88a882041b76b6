//! Expression trees evaluated against rows.
//!
//! Expressions follow SQL's three-valued logic: comparisons and arithmetic
//! involving `NULL` yield `NULL`; `AND`/`OR` use Kleene logic; a `WHERE`
//! predicate keeps a row only when it evaluates to `TRUE` (not `NULL`).

use std::borrow::Cow;
use std::fmt;

use crate::audit_bridge::AuditBridge;
use crate::error::{DbError, DbResult};
use crate::row::Row;
use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `NOT`
    Not,
    /// `-`
    Neg,
}

/// An expression over the columns of a single row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The value of column `i` of the input row.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// `op expr`
    Unary(UnaryOp, Box<Expr>),
    /// `left op right`
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `expr IS NULL` (or `IS NOT NULL` when `negated`).
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` with SQL semantics: `%` matches any run
    /// (including empty), `_` matches exactly one character. Matching is
    /// case-sensitive; a NULL operand yields NULL.
    Like {
        /// The tested expression (must evaluate to text or NULL).
        expr: Box<Expr>,
        /// The pattern, with `%`/`_` wildcards.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `VIOLATES('policy' [, 'attr'])` — does this row's provider violate
    /// the named policy (optionally restricted to one attribute)?
    /// Evaluated through the executor's [`AuditBridge`]; evaluating it
    /// without a bridge (e.g. in `UPDATE`/`DELETE` predicates) is an
    /// error. A NULL provider yields NULL, matching SQL comparison
    /// semantics.
    Violates {
        /// Expression yielding the row's provider id (bound from the
        /// table's `provider` column).
        provider: Box<Expr>,
        /// Policy name, or `None` for the house default policy.
        policy: Option<String>,
        /// Optional attribute restriction.
        attribute: Option<String>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Literal constant.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self = other`
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self <> other`
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Ne, Box::new(self), Box::new(other))
    }

    /// `self < other`
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`
    pub fn le(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::And, Box::new(self), Box::new(other))
    }

    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::Binary(BinOp::Or, Box::new(self), Box::new(other))
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary(UnaryOp::Not, Box::new(self))
    }

    /// `self IS NULL`
    pub fn is_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: false,
        }
    }

    /// `self IS NOT NULL`
    pub fn is_not_null(self) -> Expr {
        Expr::IsNull {
            expr: Box::new(self),
            negated: true,
        }
    }

    /// Evaluate against a row. Equivalent to [`Self::eval_with`] without
    /// an audit bridge — `VIOLATES` sub-expressions error.
    pub fn eval(&self, row: &Row) -> DbResult<Value> {
        self.eval_with(row, None)
    }

    /// Evaluate against a row, resolving `VIOLATES` sub-expressions
    /// through `audit` when one is provided.
    pub fn eval_with(&self, row: &Row, audit: Option<&dyn AuditBridge>) -> DbResult<Value> {
        self.eval_ref(row, audit).map(Cow::into_owned)
    }

    /// The evaluator behind [`Self::eval_with`] and
    /// [`Self::matches_with`]: columns lend their value from the row and
    /// literals lend theirs, so comparing, testing for NULL or matching a
    /// pattern allocates nothing; only computed values are owned.
    fn eval_ref<'a>(
        &'a self,
        row: &'a Row,
        audit: Option<&dyn AuditBridge>,
    ) -> DbResult<Cow<'a, Value>> {
        Ok(match self {
            Expr::Column(i) => Cow::Borrowed(
                row.get(*i)
                    .ok_or_else(|| DbError::Eval(format!("column index {i} out of range")))?,
            ),
            Expr::Literal(v) => Cow::Borrowed(v),
            Expr::Unary(op, inner) => {
                let v = inner.eval_ref(row, audit)?;
                Cow::Owned(match (op, v.as_ref()) {
                    (_, Value::Null) => Value::Null,
                    (UnaryOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    (UnaryOp::Not, other) => {
                        return Err(DbError::Eval(format!("NOT applied to {other}")))
                    }
                    (UnaryOp::Neg, Value::Int(i)) => i
                        .checked_neg()
                        .map(Value::Int)
                        .ok_or_else(|| DbError::Eval("integer overflow in negation".into()))?,
                    (UnaryOp::Neg, Value::Float(f)) => Value::Float(-f),
                    (UnaryOp::Neg, other) => {
                        return Err(DbError::Eval(format!("negation applied to {other}")))
                    }
                })
            }
            Expr::Binary(op, l, r) => Cow::Owned(eval_binary(*op, l, r, row, audit)?),
            Expr::IsNull { expr, negated } => Cow::Owned(Value::Bool(
                expr.eval_ref(row, audit)?.is_null() != *negated,
            )),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Cow::Owned(match expr.eval_ref(row, audit)?.as_ref() {
                Value::Null => Value::Null,
                Value::Text(s) => Value::Bool(like_match(s, pattern) != *negated),
                other => return Err(DbError::Eval(format!("LIKE applied to {other}"))),
            }),
            Expr::Violates {
                provider,
                policy,
                attribute,
            } => {
                let bridge = audit.ok_or_else(|| {
                    DbError::Eval(
                        "VIOLATES requires an audit bridge (query through Ppdb::query_violations \
                         or Database::query_with)"
                            .into(),
                    )
                })?;
                Cow::Owned(match provider.eval_ref(row, audit)?.as_ref() {
                    Value::Null => Value::Null,
                    Value::Int(id) => Value::Bool(bridge.violates(
                        *id,
                        policy.as_deref(),
                        attribute.as_deref(),
                    )?),
                    other => {
                        return Err(DbError::Eval(format!(
                            "VIOLATES provider id must be an integer, got {other}"
                        )))
                    }
                })
            }
        })
    }

    /// Evaluate as a predicate: `true` only for `Bool(true)` (`NULL` filters
    /// the row out, matching SQL `WHERE`).
    pub fn matches(&self, row: &Row) -> DbResult<bool> {
        self.matches_with(row, None)
    }

    /// [`Self::matches`] with an audit bridge for `VIOLATES` resolution.
    pub fn matches_with(&self, row: &Row, audit: Option<&dyn AuditBridge>) -> DbResult<bool> {
        match self.eval_ref(row, audit)?.as_ref() {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(DbError::Eval(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }
}

/// `left op right`, with both operands evaluated (left first) before
/// either is inspected, so an error on either side always surfaces.
fn eval_binary(
    op: BinOp,
    l: &Expr,
    r: &Expr,
    row: &Row,
    audit: Option<&dyn AuditBridge>,
) -> DbResult<Value> {
    let lv = l.eval_ref(row, audit)?;
    let rv = r.eval_ref(row, audit)?;
    let (lv, rv) = (lv.as_ref(), rv.as_ref());
    // Kleene AND/OR must treat NULLs specially.
    if matches!(op, BinOp::And | BinOp::Or) {
        return kleene(op, lv, rv);
    }
    if lv.is_null() || rv.is_null() {
        return Ok(Value::Null);
    }
    let ord = || compare(lv, rv);
    Ok(Value::Bool(match op {
        BinOp::Eq => ord()?.is_eq(),
        BinOp::Ne => ord()?.is_ne(),
        BinOp::Lt => ord()?.is_lt(),
        BinOp::Le => ord()?.is_le(),
        BinOp::Gt => ord()?.is_gt(),
        BinOp::Ge => ord()?.is_ge(),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            return arithmetic(op, lv, rv)
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }))
}

/// SQL `LIKE` matching: `%` = any run, `_` = one character. Iterative
/// two-pointer algorithm with backtracking to the last `%` — linear in
/// practice, no recursion, no regex dependency. It walks the UTF-8 bytes
/// in place: both cursors stay on character boundaries (`_` and the `%`
/// backtrack step over a whole character, a literal matches a whole
/// encoded character), and the ASCII wildcards never occur inside a
/// multibyte sequence.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let (t, p) = (text.as_bytes(), pattern.as_bytes());
    let (mut ti, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < t.len() {
        // The wildcard test must precede the literal test: a literal '%'
        // in the *text* would otherwise consume the pattern's wildcard.
        if pi < p.len() && p[pi] == b'%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if pi < p.len() && p[pi] == b'_' {
            ti += utf8_len(t[ti]);
            pi += 1;
        } else if pi < p.len() && t[ti..].starts_with(&p[pi..pi + utf8_len(p[pi])]) {
            let n = utf8_len(p[pi]);
            ti += n;
            pi += n;
        } else if let Some((sp, st)) = star {
            // Backtrack: let the last % swallow one more character.
            let st = st + utf8_len(t[st]);
            pi = sp;
            ti = st;
            star = Some((sp, st));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&b| b == b'%')
}

/// Byte length of the UTF-8 character whose first byte is `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// SQL comparison: only like-typed values (or the numeric pair) compare.
fn compare(l: &Value, r: &Value) -> DbResult<std::cmp::Ordering> {
    let comparable = matches!(
        (l, r),
        (Value::Bool(_), Value::Bool(_))
            | (
                Value::Int(_) | Value::Float(_),
                Value::Int(_) | Value::Float(_)
            )
            | (Value::Text(_), Value::Text(_))
            | (Value::Bytes(_), Value::Bytes(_))
    );
    if !comparable {
        return Err(DbError::Eval(format!("cannot compare {l} with {r}")));
    }
    Ok(l.cmp(r))
}

fn kleene(op: BinOp, l: &Value, r: &Value) -> DbResult<Value> {
    let as_tristate = |v: &Value| -> DbResult<Option<bool>> {
        match v {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(DbError::Eval(format!("{} applied to {other}", op.symbol()))),
        }
    };
    let lt = as_tristate(l)?;
    let rt = as_tristate(r)?;
    let out = match op {
        BinOp::And => match (lt, rt) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinOp::Or => match (lt, rt) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!(),
    };
    Ok(out.map(Value::Bool).unwrap_or(Value::Null))
}

fn arithmetic(op: BinOp, l: &Value, r: &Value) -> DbResult<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let out = match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                BinOp::Mul => a.checked_mul(*b),
                BinOp::Div => {
                    if *b == 0 {
                        return Err(DbError::Eval("division by zero".into()));
                    }
                    a.checked_div(*b)
                }
                BinOp::Mod => {
                    if *b == 0 {
                        return Err(DbError::Eval("modulo by zero".into()));
                    }
                    a.checked_rem(*b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| DbError::Eval("integer overflow".into()))
        }
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let a = l.as_float().expect("numeric");
            let b = r.as_float().expect("numeric");
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(DbError::Eval("division by zero".into()));
                    }
                    a / b
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        return Err(DbError::Eval("modulo by zero".into()));
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
        (Value::Text(a), Value::Text(b)) if op == BinOp::Add => {
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(a);
            s.push_str(b);
            Ok(Value::Text(s))
        }
        _ => Err(DbError::Eval(format!(
            "{} not defined for {l} and {r}",
            op.symbol()
        ))),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(i) => write!(f, "#{i}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "(NOT {e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE '{pattern}')",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Violates {
                provider,
                policy,
                attribute,
            } => {
                write!(f, "VIOLATES[{provider}](")?;
                if let Some(p) = policy {
                    write!(f, "'{p}'")?;
                }
                if let Some(a) = attribute {
                    if policy.is_some() {
                        f.write_str(", ")?;
                    }
                    write!(f, "'{a}'")?;
                }
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::from_values([
            Value::Int(10),
            Value::Text("bob".into()),
            Value::Null,
            Value::Float(2.5),
            Value::Bool(true),
        ])
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(Expr::col(0).eval(&row()).unwrap(), Value::Int(10));
        assert_eq!(Expr::lit(7).eval(&row()).unwrap(), Value::Int(7));
        assert!(Expr::col(99).eval(&row()).is_err());
    }

    #[test]
    fn comparisons() {
        let r = row();
        assert_eq!(
            Expr::col(0).gt(Expr::lit(5)).eval(&r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::col(1).eq(Expr::lit("bob")).eval(&r).unwrap(),
            Value::Bool(true)
        );
        // Mixed numeric comparison.
        assert_eq!(
            Expr::col(3).lt(Expr::lit(3)).eval(&r).unwrap(),
            Value::Bool(true)
        );
        // Incomparable types error.
        assert!(Expr::col(0).eq(Expr::lit("x")).eval(&r).is_err());
    }

    #[test]
    fn null_propagates_through_comparisons_and_arithmetic() {
        let r = row();
        assert_eq!(Expr::col(2).eq(Expr::lit(1)).eval(&r).unwrap(), Value::Null);
        assert_eq!(Expr::col(2).gt(Expr::col(0)).eval(&r).unwrap(), Value::Null);
        assert_eq!(
            Expr::Binary(BinOp::Add, Box::new(Expr::col(2)), Box::new(Expr::lit(1)))
                .eval(&r)
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn kleene_logic() {
        let t = || Expr::lit(true);
        let f = || Expr::lit(false);
        let n = || Expr::lit(Value::Null);
        let r = row();
        // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
        assert_eq!(f().and(n()).eval(&r).unwrap(), Value::Bool(false));
        assert_eq!(t().and(n()).eval(&r).unwrap(), Value::Null);
        // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
        assert_eq!(t().or(n()).eval(&r).unwrap(), Value::Bool(true));
        assert_eq!(f().or(n()).eval(&r).unwrap(), Value::Null);
        // NOT NULL = NULL.
        assert_eq!(n().not().eval(&r).unwrap(), Value::Null);
        assert_eq!(t().not().eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn matches_treats_null_as_false() {
        let r = row();
        assert!(!Expr::col(2).eq(Expr::lit(1)).matches(&r).unwrap());
        assert!(Expr::col(4).matches(&r).unwrap());
        assert!(Expr::col(0).matches(&r).is_err()); // non-boolean predicate
    }

    #[test]
    fn is_null_tests() {
        let r = row();
        assert_eq!(Expr::col(2).is_null().eval(&r).unwrap(), Value::Bool(true));
        assert_eq!(Expr::col(0).is_null().eval(&r).unwrap(), Value::Bool(false));
        assert_eq!(
            Expr::col(2).is_not_null().eval(&r).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn arithmetic_int_float_text() {
        let r = row();
        let add = |a: Expr, b: Expr| Expr::Binary(BinOp::Add, Box::new(a), Box::new(b));
        assert_eq!(
            add(Expr::lit(2), Expr::lit(3)).eval(&r).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            add(Expr::lit(2), Expr::lit(0.5)).eval(&r).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            add(Expr::lit("foo"), Expr::lit("bar")).eval(&r).unwrap(),
            Value::Text("foobar".into())
        );
        let div = |a: Expr, b: Expr| Expr::Binary(BinOp::Div, Box::new(a), Box::new(b));
        assert_eq!(
            div(Expr::lit(7), Expr::lit(2)).eval(&r).unwrap(),
            Value::Int(3)
        );
        assert!(div(Expr::lit(7), Expr::lit(0)).eval(&r).is_err());
        let m = |a: Expr, b: Expr| Expr::Binary(BinOp::Mod, Box::new(a), Box::new(b));
        assert_eq!(
            m(Expr::lit(7), Expr::lit(2)).eval(&r).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn overflow_is_an_error_not_a_wrap() {
        let r = row();
        let mul = Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::lit(i64::MAX)),
            Box::new(Expr::lit(2)),
        );
        assert!(mul.eval(&r).is_err());
        let neg = Expr::Unary(UnaryOp::Neg, Box::new(Expr::lit(i64::MIN)));
        assert!(neg.eval(&r).is_err());
    }

    #[test]
    fn like_matching_semantics() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%o"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "a%c"));
        assert!(like_match("ac", "a%c"));
        assert!(like_match("a%c-literal-ish", "a%h"));
        assert!(!like_match("hello", "h"));
        assert!(!like_match("hello", "hello!"));
        assert!(!like_match("", "_"));
        assert!(!like_match("Hello", "hello")); // case-sensitive
                                                // Multiple wildcards with backtracking.
        assert!(like_match("mississippi", "%iss%pi"));
        assert!(!like_match("mississippi", "%iss%x"));
    }

    #[test]
    fn like_edge_cases() {
        assert!(like_match("", ""));
        assert!(!like_match("a", ""));
        assert!(like_match("", "%%"));
        assert!(!like_match("", "_%"));
        assert!(like_match("abc", "abc%"));
        assert!(like_match("abc", "a%%%c"));
        assert!(like_match("abc", "%__"));
        assert!(!like_match("abc", "%____"));
        // `_` is one character, not one byte.
        assert!(like_match("é", "_"));
        assert!(!like_match("é", "__"));
        assert!(like_match("中😀x", "__x"));
        assert!(like_match("x中😀", "x%😀"));
        assert!(!like_match("x中😀", "x%中"));
        // Wildcards in the text are literals.
        assert!(like_match("50%", "50%"));
        assert!(like_match("a_b", "a_b"));
    }

    /// The SQL `LIKE` definition, read off directly: exponential, only
    /// fit for short inputs.
    fn like_reference(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| like_reference(&t[k..], rest)),
            Some(('_', rest)) => !t.is_empty() && like_reference(&t[1..], rest),
            Some((c, rest)) => t.first() == Some(c) && like_reference(&t[1..], rest),
        }
    }

    fn like_oracle(text: &str, pattern: &str) -> bool {
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        like_reference(&t, &p)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]
        #[test]
        fn prop_like_matches_the_reference(
            text in "[ab%_é中😀]{0,10}",
            pattern in "[ab%_é中😀]{0,7}",
        ) {
            proptest::prop_assert_eq!(
                like_match(&text, &pattern),
                like_oracle(&text, &pattern),
                "{:?} LIKE {:?}", text, pattern
            );
        }

        /// Patterns cut from the text itself, so most of them match:
        /// each character kept, or replaced by `_`, `%` or a `%` run,
        /// with an optional trailing `%`.
        #[test]
        fn prop_like_matches_the_reference_on_derived_patterns(
            text in "[ab%_é中😀]{0,12}",
            mask in proptest::collection::vec(0u8..5, 0..12),
            trailing in proptest::prelude::any::<bool>(),
        ) {
            let mut pattern = String::new();
            for (c, m) in text.chars().zip(mask.iter().chain(std::iter::repeat(&0))) {
                match m {
                    1 => pattern.push('_'),
                    2 => pattern.push('%'),
                    3 => pattern.push_str("%%"),
                    _ => pattern.push(c),
                }
            }
            if trailing {
                pattern.push('%');
            }
            proptest::prop_assert_eq!(
                like_match(&text, &pattern),
                like_oracle(&text, &pattern),
                "{:?} LIKE {:?}", text, pattern
            );
        }
    }

    /// The message of an evaluation error (panics on success or another
    /// error kind).
    fn eval_error(e: Expr) -> String {
        match e.eval(&row()) {
            Err(DbError::Eval(msg)) => msg,
            other => panic!("expected an evaluation error, got {other:?}"),
        }
    }

    #[test]
    fn borrowed_operands_keep_type_errors_and_nulls() {
        let r = row();
        // NULL wins over a type mismatch, from either side.
        assert_eq!(
            Expr::col(2).eq(Expr::lit("x")).eval(&r).unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::lit(true).lt(Expr::col(2)).eval(&r).unwrap(),
            Value::Null
        );
        assert_eq!(Expr::col(2).is_null().eval(&r).unwrap(), Value::Bool(true));
        assert_eq!(
            Expr::col(1).is_not_null().eval(&r).unwrap(),
            Value::Bool(true)
        );
        // Column against literal and column against column, both ways.
        assert_eq!(
            eval_error(Expr::col(0).eq(Expr::lit("x"))),
            "cannot compare 10 with 'x'"
        );
        assert_eq!(
            eval_error(Expr::col(1).ge(Expr::col(0))),
            "cannot compare 'bob' with 10"
        );
        assert_eq!(
            eval_error(Expr::col(4).lt(Expr::col(3))),
            "cannot compare true with 2.5"
        );
        assert_eq!(
            eval_error(Expr::col(0).and(Expr::lit(true))),
            "AND applied to 10"
        );
        assert_eq!(
            eval_error(Expr::lit(false).or(Expr::col(1))),
            "OR applied to 'bob'"
        );
        assert_eq!(eval_error(Expr::col(3).not()), "NOT applied to 2.5");
        assert_eq!(
            eval_error(Expr::Unary(UnaryOp::Neg, Box::new(Expr::col(1)))),
            "negation applied to 'bob'"
        );
        assert_eq!(
            eval_error(Expr::Binary(
                BinOp::Add,
                Box::new(Expr::col(0)),
                Box::new(Expr::col(1))
            )),
            "+ not defined for 10 and 'bob'"
        );
        assert_eq!(
            eval_error(Expr::Like {
                expr: Box::new(Expr::col(3)),
                pattern: "%".into(),
                negated: false,
            }),
            "LIKE applied to 2.5"
        );
        assert_eq!(
            eval_error(Expr::col(7).eq(Expr::lit(1))),
            "column index 7 out of range"
        );
        // A column that errs on the right still errs after a NULL left.
        assert_eq!(
            eval_error(Expr::col(2).eq(Expr::col(9))),
            "column index 9 out of range"
        );
        match Expr::col(1).matches(&r) {
            Err(DbError::Eval(msg)) => {
                assert_eq!(msg, "predicate evaluated to non-boolean 'bob'")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn like_expression_eval() {
        let r = row();
        let like = |pat: &str, neg: bool| Expr::Like {
            expr: Box::new(Expr::col(1)),
            pattern: pat.to_string(),
            negated: neg,
        };
        assert_eq!(like("b%", false).eval(&r).unwrap(), Value::Bool(true));
        assert_eq!(like("b%", true).eval(&r).unwrap(), Value::Bool(false));
        assert_eq!(like("z%", false).eval(&r).unwrap(), Value::Bool(false));
        // NULL operand → NULL.
        let null_like = Expr::Like {
            expr: Box::new(Expr::col(2)),
            pattern: "%".into(),
            negated: false,
        };
        assert_eq!(null_like.eval(&r).unwrap(), Value::Null);
        // Non-text operand errors.
        let bad = Expr::Like {
            expr: Box::new(Expr::col(0)),
            pattern: "%".into(),
            negated: false,
        };
        assert!(bad.eval(&r).is_err());
    }

    #[test]
    fn violates_requires_a_bridge_and_routes_through_it() {
        struct OddViolates;
        impl AuditBridge for OddViolates {
            fn population(&self) -> usize {
                100
            }
            fn violates(
                &self,
                provider: i64,
                policy: Option<&str>,
                _attribute: Option<&str>,
            ) -> DbResult<bool> {
                assert_eq!(policy, Some("house"));
                Ok(provider % 2 == 1)
            }
            fn violations_for(
                &self,
                _providers: &[i64],
                _policy: Option<&str>,
            ) -> DbResult<Vec<crate::audit_bridge::ViolationRow>> {
                unreachable!()
            }
            fn violations_all(
                &self,
                _policy: Option<&str>,
            ) -> DbResult<Vec<crate::audit_bridge::ViolationRow>> {
                unreachable!()
            }
        }
        let v = |provider: Expr| Expr::Violates {
            provider: Box::new(provider),
            policy: Some("house".into()),
            attribute: None,
        };
        let r = row();
        // No bridge: hard error, not NULL — the caller picked the wrong
        // entry point.
        assert!(v(Expr::lit(1)).eval(&r).is_err());
        let bridge = OddViolates;
        assert_eq!(
            v(Expr::lit(1)).eval_with(&r, Some(&bridge)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            v(Expr::col(0)).eval_with(&r, Some(&bridge)).unwrap(),
            Value::Bool(false) // column 0 is Int(10)
        );
        // NULL provider → NULL, so `matches` filters the row out.
        assert_eq!(
            v(Expr::col(2)).eval_with(&r, Some(&bridge)).unwrap(),
            Value::Null
        );
        assert!(!v(Expr::col(2)).matches_with(&r, Some(&bridge)).unwrap());
        // Non-integer provider errors.
        assert!(v(Expr::lit("x")).eval_with(&r, Some(&bridge)).is_err());
        assert_eq!(v(Expr::col(0)).to_string(), "VIOLATES[#0]('house')");
    }

    #[test]
    fn display_round_trippable_shape() {
        let e = Expr::col(0)
            .gt(Expr::lit(5))
            .and(Expr::col(1).eq(Expr::lit("x")));
        assert_eq!(e.to_string(), "((#0 > 5) AND (#1 = 'x'))");
    }
}
