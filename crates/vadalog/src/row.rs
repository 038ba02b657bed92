//! Positional binding rows: the values a match or a chase step bound,
//! held in the variable order of a per-rule [`Layout`].
//!
//! A rule's variable order is computed once (see
//! [`RuleLayout`](crate::rule::RuleLayout)); every match, chase-graph
//! derivation and aggregate contributor of the rule then stores only its
//! values. The layout is interned process-wide the way [`Symbol`] is, so
//! a row carries a pointer-sized handle to its variable list instead of a
//! copy of it, and reading a variable resolved once to a [`Slot`] is an
//! index rather than a hash.

use crate::expr::{Bindings, Env};
use crate::symbol::Symbol;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An ordered list of distinct variables: the slot order of a row.
///
/// Layouts are interned and never freed, so a layout is `Copy`, pointer
/// sized, and two layouts are equal iff their variable lists are.
#[derive(Clone, Copy)]
pub struct Layout(&'static Vec<Symbol>);

/// The variable list of the empty layout.
static NO_VARS: Vec<Symbol> = Vec::new();

fn layouts() -> &'static Mutex<HashMap<Vec<Symbol>, &'static Vec<Symbol>>> {
    static LAYOUTS: OnceLock<Mutex<HashMap<Vec<Symbol>, &'static Vec<Symbol>>>> = OnceLock::new();
    LAYOUTS.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Layout {
    /// The layout of no variables.
    pub const EMPTY: Layout = Layout(&NO_VARS);

    /// Interns the layout of `vars`, which must be distinct. Idempotent.
    pub fn new(vars: &[Symbol]) -> Layout {
        debug_assert!(
            vars.iter().enumerate().all(|(i, v)| !vars[..i].contains(v)),
            "layout variables must be distinct: {vars:?}"
        );
        if vars.is_empty() {
            return Layout::EMPTY;
        }
        let mut table = layouts().lock().expect("layout interner poisoned");
        if let Some(&interned) = table.get(vars) {
            return Layout(interned);
        }
        let interned: &'static Vec<Symbol> = Box::leak(Box::new(vars.to_vec()));
        table.insert(vars.to_vec(), interned);
        Layout(interned)
    }

    /// The variables, in slot order.
    pub fn vars(self) -> &'static [Symbol] {
        self.0
    }

    /// Number of slots.
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// True iff the layout has no slot.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The slot of `var`, if the layout has one.
    pub fn slot(self, var: Symbol) -> Option<Slot> {
        self.position(var).map(|index| Slot {
            layout: self,
            index,
        })
    }

    /// The index of `var`'s slot.
    pub(crate) fn position(self, var: Symbol) -> Option<usize> {
        self.0.iter().position(|&v| v == var)
    }
}

impl PartialEq for Layout {
    fn eq(&self, other: &Layout) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Layout {}

impl std::hash::Hash for Layout {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::ptr::hash(self.0, state);
    }
}

impl fmt::Debug for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

/// A variable's slot in one layout, resolved once: reading it from a row
/// of that layout is an index, from a row of any other layout `None`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Slot {
    layout: Layout,
    index: usize,
}

/// The values one match or chase step bound, in the order of its layout.
///
/// `Row` owns its values; a [`RowRef`] borrows them (a row of a
/// [`Rows`] block, or a prefix of a row being filled). A row may hold
/// fewer values than its layout has slots: it then binds the layout's
/// first `len()` variables.
#[derive(Clone, PartialEq, Eq)]
pub struct Row<V = Box<[Value]>> {
    layout: Layout,
    values: V,
}

/// A borrowed [`Row`].
pub type RowRef<'a> = Row<&'a [Value]>;

impl<V: AsRef<[Value]>> Row<V> {
    /// A row binding the first `values.len()` variables of `layout`.
    ///
    /// # Panics
    /// If `layout` has fewer slots than `values` has values.
    pub fn new(layout: Layout, values: V) -> Row<V> {
        assert!(
            values.as_ref().len() <= layout.len(),
            "{} values for a layout of {} slots",
            values.as_ref().len(),
            layout.len()
        );
        Row { layout, values }
    }

    /// The row's layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The bound values, in slot order.
    pub fn values(&self) -> &[Value] {
        self.values.as_ref()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// True iff the row binds no variable.
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// The value bound to `var`, if the row binds it.
    pub fn get(&self, var: Symbol) -> Option<&Value> {
        self.values().get(self.layout.position(var)?)
    }

    /// The value at `slot`, if `slot` belongs to this row's layout and
    /// the row binds it.
    pub fn at(&self, slot: Slot) -> Option<&Value> {
        if slot.layout == self.layout {
            self.values().get(slot.index)
        } else {
            None
        }
    }

    /// Every bound `(variable, value)` pair, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> + '_ {
        self.layout.vars().iter().copied().zip(self.values())
    }

    /// A borrowed view of the row.
    pub fn view(&self) -> RowRef<'_> {
        Row {
            layout: self.layout,
            values: self.values(),
        }
    }

    /// The row as a substitution map.
    pub fn to_bindings(&self) -> Bindings {
        self.iter().map(|(var, &value)| (var, value)).collect()
    }
}

impl Row {
    /// The row of the empty layout.
    pub fn empty() -> Row {
        Row {
            layout: Layout::EMPTY,
            values: Box::default(),
        }
    }
}

impl<V: AsRef<[Value]>> Env for Row<V> {
    fn lookup(&self, var: Symbol) -> Option<Value> {
        self.get(var).copied()
    }
}

impl<V: AsRef<[Value]>> fmt::Debug for Row<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Rows of one layout stored as a single block, in insertion order: the
/// contributors of an aggregate chase step, one allocation however many
/// contributors the step folded.
#[derive(Clone, PartialEq, Eq)]
pub struct Rows {
    layout: Layout,
    len: u32,
    values: Box<[Value]>,
}

impl Rows {
    /// A block of `layout` rows from full rows of that layout, in order.
    ///
    /// # Panics
    /// If a row does not bind every slot of `layout`.
    pub fn new<'r>(layout: Layout, rows: impl ExactSizeIterator<Item = &'r [Value]>) -> Rows {
        let len = rows.len();
        let mut values = Vec::with_capacity(len * layout.len());
        for row in rows {
            assert_eq!(row.len(), layout.len(), "a block row binds every slot");
            values.extend_from_slice(row);
        }
        Rows {
            layout,
            len: u32::try_from(len).expect("row block overflow"),
            values: values.into_boxed_slice(),
        }
    }

    /// The empty block.
    pub fn empty() -> Rows {
        Rows {
            layout: Layout::EMPTY,
            len: 0,
            values: Box::default(),
        }
    }

    /// The layout of every row.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff the block holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All values, row after row.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The `i`-th row.
    pub fn get(&self, i: usize) -> Option<RowRef<'_>> {
        (i < self.len()).then(|| {
            let width = self.layout.len();
            Row::new(self.layout, &self.values[i * width..(i + 1) * width])
        })
    }

    /// The value at `slot` of the `i`-th row, if there is such a row and
    /// `slot` belongs to the block's layout.
    pub fn at(&self, i: usize, slot: Slot) -> Option<&Value> {
        if slot.layout == self.layout && i < self.len() {
            self.values.get(i * self.layout.len() + slot.index)
        } else {
            None
        }
    }

    /// The rows, in order.
    pub fn iter(&self) -> RowsIter<'_> {
        RowsIter {
            rows: self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = RowRef<'a>;
    type IntoIter = RowsIter<'a>;

    fn into_iter(self) -> RowsIter<'a> {
        self.iter()
    }
}

/// The rows of a [`Rows`] block, in order.
#[derive(Clone, Debug)]
pub struct RowsIter<'a> {
    rows: &'a Rows,
    next: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        let row = self.rows.get(self.next)?;
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(names: &[&str]) -> Vec<Symbol> {
        names.iter().map(|n| Symbol::new(n)).collect()
    }

    #[test]
    fn layouts_are_interned() {
        let a = Layout::new(&syms(&["row_x", "row_y"]));
        let b = Layout::new(&syms(&["row_x", "row_y"]));
        let c = Layout::new(&syms(&["row_y", "row_x"]));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.vars(), b.vars()));
        assert_ne!(a, c);
        assert_eq!(Layout::new(&[]), Layout::EMPTY);
        assert!(Layout::EMPTY.is_empty());
    }

    #[test]
    fn get_len_and_iter_follow_the_layout() {
        let layout = Layout::new(&syms(&["row_a", "row_b", "row_c"]));
        let values = vec![Value::str("A"), Value::Int(7), Value::Float(0.5)];
        let row = Row::new(layout, values.clone().into_boxed_slice());
        assert_eq!(row.len(), 3);
        assert_eq!(row.get(Symbol::new("row_a")), Some(&Value::str("A")));
        assert_eq!(row.get(Symbol::new("row_c")), Some(&Value::Float(0.5)));
        assert_eq!(row.get(Symbol::new("row_z")), None);
        let pairs: Vec<(&str, Value)> = row.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            pairs,
            vec![
                ("row_a", values[0]),
                ("row_b", values[1]),
                ("row_c", values[2])
            ]
        );
        assert_eq!(row.to_bindings().len(), 3);
    }

    #[test]
    fn a_prefix_row_binds_only_its_prefix() {
        let layout = Layout::new(&syms(&["row_p", "row_q"]));
        let values = [Value::Int(1), Value::Int(2)];
        let prefix = Row::new(layout, &values[..1]);
        assert_eq!(prefix.len(), 1);
        assert_eq!(prefix.get(Symbol::new("row_p")), Some(&Value::Int(1)));
        assert_eq!(prefix.get(Symbol::new("row_q")), None);
        assert_eq!(prefix.iter().count(), 1);
    }

    #[test]
    fn slots_index_rows_of_their_own_layout_only() {
        let layout = Layout::new(&syms(&["row_s", "row_t"]));
        let other = Layout::new(&syms(&["row_t", "row_s"]));
        let slot = layout.slot(Symbol::new("row_t")).unwrap();
        let row = Row::new(
            layout,
            vec![Value::Int(1), Value::Int(2)].into_boxed_slice(),
        );
        let foreign = Row::new(other, vec![Value::Int(3), Value::Int(4)].into_boxed_slice());
        assert_eq!(row.at(slot), Some(&Value::Int(2)));
        assert_eq!(foreign.at(slot), None);
        assert_eq!(Row::empty().at(slot), None);
    }

    #[test]
    fn blocks_hold_rows_in_order() {
        let layout = Layout::new(&syms(&["row_u", "row_v"]));
        let rows = [
            [Value::str("B"), Value::Int(2)],
            [Value::str("B"), Value::Int(9)],
        ];
        let block = Rows::new(layout, rows.iter().map(|r| &r[..]));
        assert_eq!(block.len(), 2);
        let vs: Vec<Value> = block
            .iter()
            .map(|r| *r.get(Symbol::new("row_v")).unwrap())
            .collect();
        assert_eq!(vs, vec![Value::Int(2), Value::Int(9)]);
        assert!(block.get(2).is_none());
        let v = layout.slot(Symbol::new("row_v")).unwrap();
        assert_eq!(block.at(1, v), Some(&Value::Int(9)));
        assert_eq!(block.at(2, v), None);
        assert_eq!((&block).into_iter().count(), 2);
        assert!(Rows::empty().is_empty());
    }

    #[test]
    fn rows_feed_the_expression_evaluator() {
        use crate::expr::{ArithOp, Expr};
        let layout = Layout::new(&syms(&["row_m", "row_n"]));
        let row = Row::new(
            layout,
            vec![Value::Int(2), Value::Int(3)].into_boxed_slice(),
        );
        let e = Expr::binary(ArithOp::Mul, Expr::var("row_m"), Expr::var("row_n"));
        assert_eq!(e.eval(&row).unwrap(), Value::Int(6));
        assert!(Expr::var("row_z").eval(&row).is_err());
    }
}
