//! The structured three-address IR (the paper's µJS, Figure 5, plus "a
//! small number of additional statement forms", §4).
//!
//! Expressions are flattened into three-address instructions over
//! [`Place`]s, but control flow stays structured (`if`/`loop`/`try`) because
//! the instrumented semantics needs the lexical extent of branches to
//! compute write domains (`vd`/`pd`) and to roll back counterfactual
//! execution.
//!
//! All identifiers and static property keys are interned [`Sym`]s; the
//! owning [`Program`] carries the [`Interner`] that resolves them back to
//! strings. Statically resolvable variable references are additionally
//! rewritten to [`Place::Slot`] coordinates by [`crate::slots`], so the
//! interpreters index activation frames directly instead of hashing names.

use crate::intern::{Interner, Sym};
use mujs_syntax::ast::Lit;
use mujs_syntax::span::Span;
use std::fmt;
use std::rc::Rc;

/// Index of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Index of a temporary slot within a function's frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TempId(pub u32);

impl fmt::Display for TempId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Program-wide statement identifier; doubles as the *program point* that
/// determinacy facts are attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A readable/writable location: a frame temporary, a named variable, or
/// a statically resolved variable slot.
///
/// Temporaries are invisible to closures and `eval`, so they can be stored
/// in a flat per-activation array. Named variables go through the scope
/// chain at runtime. `Slot` places are named variables whose binding was
/// resolved at lowering time ([`crate::slots`]): `hops` enclosing function
/// activations up, then a direct index into that activation's locals —
/// no name comparison at all.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Place {
    /// A frame-local temporary.
    Temp(TempId),
    /// A named variable, resolved through the scope chain.
    Named(Sym),
    /// A named variable with a statically resolved coordinate.
    Slot {
        /// How many *function* activations to walk up (0 = the current
        /// function's own activation; catch scopes don't count).
        hops: u32,
        /// Index into the target activation's local slots.
        slot: u32,
        /// The original name — kept for write-domain identity, fact
        /// values, and diagnostics.
        sym: Sym,
    },
}

impl Place {
    /// The variable name behind this place, if it is a variable
    /// (`Named` or `Slot`). Slot places canonicalize to their name so
    /// write-domain identity is unaffected by resolution.
    pub fn as_var_sym(&self) -> Option<Sym> {
        match self {
            Place::Temp(_) => None,
            Place::Named(s) => Some(*s),
            Place::Slot { sym, .. } => Some(*sym),
        }
    }
}

/// A property key in a load/store: statically known or computed.
///
/// The specializer's "making dynamic property accesses static" rewrite
/// (§5.1) turns `Dynamic` keys with determinate string facts into `Static`
/// ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PropKey {
    /// `o.name` — the name is fixed.
    Static(Sym),
    /// `o[k]` — the name is the string coercion of the place's value.
    Dynamic(Place),
}

/// Binary operators on primitive values (`PrimOp` of Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (addition or string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    NotEq,
    /// `===`
    StrictEq,
    /// `!==`
    StrictNotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    UShr,
}

impl BinOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Eq => "==",
            NotEq => "!=",
            StrictEq => "===",
            StrictNotEq => "!==",
            Lt => "<",
            LtEq => "<=",
            Gt => ">",
            GtEq => ">=",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            Shl => "<<",
            Shr => ">>",
            UShr => ">>>",
        }
    }
}

/// Unary operators on primitive values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `+` (numeric coercion)
    Pos,
    /// `!`
    Not,
    /// `~`
    BitNot,
    /// `typeof`
    Typeof,
    /// `void`
    Void,
}

impl UnOp {
    /// Source text of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Pos => "+",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Typeof => "typeof",
            UnOp::Void => "void",
        }
    }
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// A statement with its program point and source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The program point.
    pub id: StmtId,
    /// The originating source span.
    pub span: Span,
    /// The statement's shape.
    pub kind: StmtKind,
}

/// The statement forms of the IR.
///
/// The first group mirrors µJS's simple statements (Figure 5); the second
/// group is the structured control flow; the third covers the "additional
/// statement forms" needed for full JavaScript (§4).
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    // ----- µJS simple statements ---------------------------------------
    /// `x = pv` — literal load.
    Const {
        /// Destination.
        dst: Place,
        /// The literal.
        lit: Lit,
    },
    /// `x = y` — variable copy.
    Copy {
        /// Destination.
        dst: Place,
        /// Source.
        src: Place,
    },
    /// `x = fun(..){..}` — closure creation.
    Closure {
        /// Destination.
        dst: Place,
        /// The function being closed over the current scope.
        func: FuncId,
    },
    /// `x = {}` — record creation (also used for object literals; array
    /// literals set `is_array`).
    NewObject {
        /// Destination.
        dst: Place,
        /// Whether the object is an array (gets a `length` property and
        /// array coercion behavior).
        is_array: bool,
    },
    /// `x = y[z]` — property load (walks the prototype chain).
    GetProp {
        /// Destination.
        dst: Place,
        /// Receiver.
        obj: Place,
        /// Property key.
        key: PropKey,
    },
    /// `x[y] = z` — property store.
    SetProp {
        /// Receiver.
        obj: Place,
        /// Property key.
        key: PropKey,
        /// Stored value.
        val: Place,
    },
    /// `x = delete y[z]`.
    DeleteProp {
        /// Destination (receives `true`).
        dst: Place,
        /// Receiver.
        obj: Place,
        /// Property key.
        key: PropKey,
    },
    /// `x = y ⊕ z` — primitive operator.
    BinOp {
        /// Destination.
        dst: Place,
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Place,
        /// Right operand.
        rhs: Place,
    },
    /// `x = ⊖ y` — unary primitive operator.
    UnOp {
        /// Destination.
        dst: Place,
        /// The operator.
        op: UnOp,
        /// Operand.
        src: Place,
    },
    /// `x = f(y, ...)` — function call; `this_arg` carries the receiver
    /// for method calls.
    Call {
        /// Destination for the return value.
        dst: Place,
        /// The callee value.
        callee: Place,
        /// Receiver bound to `this` in the callee (global object if
        /// `None`).
        this_arg: Option<Place>,
        /// Argument values.
        args: Vec<Place>,
    },
    /// `x = new F(y, ...)` — constructor call.
    New {
        /// Destination for the constructed object.
        dst: Place,
        /// The constructor value.
        callee: Place,
        /// Argument values.
        args: Vec<Place>,
    },

    // ----- structured control flow --------------------------------------
    /// `if (x) { .. } else { .. }`.
    If {
        /// The condition place (tested for truthiness).
        cond: Place,
        /// Taken when truthy.
        then_blk: Block,
        /// Taken when falsy (empty for one-armed ifs).
        else_blk: Block,
    },
    /// A general loop: evaluate `cond_blk` then test `cond`; run `body`;
    /// run `update` (the `for`-loop update clause, also the target of
    /// `continue`); repeat.
    Loop {
        /// Instructions recomputing the condition each iteration.
        cond_blk: Block,
        /// The condition place.
        cond: Place,
        /// The loop body.
        body: Block,
        /// Update clause run after the body (and after `continue`).
        update: Block,
        /// `false` for `do..while`: the first iteration skips the test.
        check_cond_first: bool,
    },
    /// A block that `break` exits (used to desugar `switch`).
    Breakable {
        /// The body.
        body: Block,
    },
    /// `try { .. } catch (x) { .. } finally { .. }`.
    Try {
        /// The protected block.
        block: Block,
        /// Catch clause: bound name and handler.
        catch: Option<(Sym, Block)>,
        /// Finally clause.
        finally: Option<Block>,
    },

    // ----- abrupt completions -------------------------------------------
    /// `return x?`.
    Return {
        /// Returned value (`undefined` if absent).
        arg: Option<Place>,
    },
    /// `break` out of the nearest `Loop`/`Breakable`.
    Break,
    /// `continue` the nearest `Loop`.
    Continue,
    /// `throw x`.
    Throw {
        /// The thrown value.
        arg: Place,
    },

    // ----- additional statement forms (§4) --------------------------------
    /// `x = this`.
    LoadThis {
        /// Destination.
        dst: Place,
    },
    /// `x = typeof name` where `name` may be unbound (no ReferenceError).
    TypeofName {
        /// Destination.
        dst: Place,
        /// The possibly-unbound name (always resolved by name at runtime).
        name: Sym,
    },
    /// `x = y in z` — property-existence test along the prototype chain.
    HasProp {
        /// Destination.
        dst: Place,
        /// Key operand (coerced to string).
        key: Place,
        /// Receiver.
        obj: Place,
    },
    /// `x = y instanceof F` — prototype-chain walk.
    InstanceOf {
        /// Destination.
        dst: Place,
        /// The tested value.
        val: Place,
        /// The constructor.
        ctor: Place,
    },
    /// `x = ownKeys(y)` — snapshot of enumerable own+inherited property
    /// names as a fresh array; used to desugar `for-in`.
    EnumProps {
        /// Destination (an array of strings).
        dst: Place,
        /// The enumerated object.
        obj: Place,
    },
    /// `x = eval(y)` — *direct* eval in the current scope. Indirect calls
    /// to the `eval` value go through a native and evaluate globally.
    Eval {
        /// Destination.
        dst: Place,
        /// The code string.
        arg: Place,
    },
}

impl StmtKind {
    /// Visits every [`Place`] appearing directly in this statement,
    /// including the inner place of a [`PropKey::Dynamic`] key and the
    /// condition places of `If`/`Loop` — but *not* the places of
    /// statements nested inside child blocks (pair with
    /// [`Program::walk_block`] for those).
    ///
    /// Destination places are visited too: a "place" here is a syntactic
    /// operand slot, not a read. Static consumers that need the
    /// read/write split use [`crate::vd::write_domain`] for writes.
    pub fn for_each_place<'a>(&'a self, visit: &mut dyn FnMut(&'a Place)) {
        use StmtKind::*;
        let key = |k: &'a PropKey, visit: &mut dyn FnMut(&'a Place)| {
            if let PropKey::Dynamic(p) = k {
                visit(p);
            }
        };
        match self {
            Const { dst, .. }
            | NewObject { dst, .. }
            | Closure { dst, .. }
            | LoadThis { dst }
            | TypeofName { dst, .. } => visit(dst),
            Copy { dst, src } | UnOp { dst, src, .. } => {
                visit(dst);
                visit(src);
            }
            BinOp { dst, lhs, rhs, .. } => {
                visit(dst);
                visit(lhs);
                visit(rhs);
            }
            GetProp { dst, obj, key: k } | DeleteProp { dst, obj, key: k } => {
                visit(dst);
                visit(obj);
                key(k, visit);
            }
            SetProp { obj, key: k, val } => {
                visit(obj);
                key(k, visit);
                visit(val);
            }
            Call {
                dst,
                callee,
                this_arg,
                args,
            } => {
                visit(dst);
                visit(callee);
                if let Some(t) = this_arg {
                    visit(t);
                }
                for a in args {
                    visit(a);
                }
            }
            New { dst, callee, args } => {
                visit(dst);
                visit(callee);
                for a in args {
                    visit(a);
                }
            }
            If { cond, .. } => visit(cond),
            Loop { cond, .. } => visit(cond),
            Breakable { .. } | Try { .. } | Break | Continue => {}
            Return { arg } => {
                if let Some(a) = arg {
                    visit(a);
                }
            }
            Throw { arg } => visit(arg),
            HasProp { dst, key: k, obj } => {
                visit(dst);
                visit(k);
                visit(obj);
            }
            InstanceOf { dst, val, ctor } => {
                visit(dst);
                visit(val);
                visit(ctor);
            }
            EnumProps { dst, obj } | Eval { dst, arg: obj } => {
                visit(dst);
                visit(obj);
            }
        }
    }

    /// Mutable counterpart of [`StmtKind::for_each_place`], visiting the
    /// same operand slots in the same order.
    pub fn for_each_place_mut(&mut self, visit: &mut dyn FnMut(&mut Place)) {
        use StmtKind::*;
        let key = |k: &mut PropKey, visit: &mut dyn FnMut(&mut Place)| {
            if let PropKey::Dynamic(p) = k {
                visit(p);
            }
        };
        match self {
            Const { dst, .. }
            | NewObject { dst, .. }
            | Closure { dst, .. }
            | LoadThis { dst }
            | TypeofName { dst, .. } => visit(dst),
            Copy { dst, src } | UnOp { dst, src, .. } => {
                visit(dst);
                visit(src);
            }
            BinOp { dst, lhs, rhs, .. } => {
                visit(dst);
                visit(lhs);
                visit(rhs);
            }
            GetProp { dst, obj, key: k } | DeleteProp { dst, obj, key: k } => {
                visit(dst);
                visit(obj);
                key(k, visit);
            }
            SetProp { obj, key: k, val } => {
                visit(obj);
                key(k, visit);
                visit(val);
            }
            Call {
                dst,
                callee,
                this_arg,
                args,
            } => {
                visit(dst);
                visit(callee);
                if let Some(t) = this_arg {
                    visit(t);
                }
                for a in args {
                    visit(a);
                }
            }
            New { dst, callee, args } => {
                visit(dst);
                visit(callee);
                for a in args {
                    visit(a);
                }
            }
            If { cond, .. } => visit(cond),
            Loop { cond, .. } => visit(cond),
            Breakable { .. } | Try { .. } | Break | Continue => {}
            Return { arg } => {
                if let Some(a) = arg {
                    visit(a);
                }
            }
            Throw { arg } => visit(arg),
            HasProp { dst, key: k, obj } => {
                visit(dst);
                visit(k);
                visit(obj);
            }
            InstanceOf { dst, val, ctor } => {
                visit(dst);
                visit(val);
                visit(ctor);
            }
            EnumProps { dst, obj } | Eval { dst, arg: obj } => {
                visit(dst);
                visit(obj);
            }
        }
    }
}

/// Variables that carry a function's scope: parameters, `var`-declared
/// names, and hoisted function declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Decls {
    /// `var`-declared names (in declaration order, deduplicated).
    pub vars: Vec<Sym>,
    /// Hoisted function declarations, bound at activation entry.
    pub funcs: Vec<(Sym, FuncId)>,
}

/// What kind of code a [`Function`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncKind {
    /// The top-level script (runs in the global scope).
    Script,
    /// An ordinary function.
    Function,
    /// A chunk produced by `eval`: has no scope of its own — its `var`
    /// declarations belong to the nearest enclosing function.
    EvalChunk,
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Its id in the owning [`Program`].
    pub id: FuncId,
    /// Source-level name, if any.
    pub name: Option<Sym>,
    /// Parameter names.
    pub params: Vec<Sym>,
    /// Hoisted declarations.
    pub decls: Decls,
    /// Number of temporary slots the frame needs.
    pub n_temps: u32,
    /// The body.
    pub body: Block,
    /// Source span of the whole function.
    pub span: Span,
    /// What kind of code this is.
    pub kind: FuncKind,
    /// The lexically enclosing function (`None` for the entry script).
    pub parent: Option<FuncId>,
    /// For named function expressions: bind `name` to the closure itself
    /// inside the activation.
    pub bind_self: bool,
    /// For clones made by the specializer: the original function.
    pub specialized_from: Option<FuncId>,
    /// The activation's local slot layout, in slot order: params,
    /// `arguments`, the self-binding (if any), hoisted function names,
    /// then `var`s — deduplicated keeping the first occurrence. Empty
    /// for scripts and eval chunks, which have no activation of their
    /// own. Computed by [`crate::slots::resolve_slots`].
    pub locals: Vec<Sym>,
    /// Whether the body contains a *direct* `eval` statement (which can
    /// introduce bindings invisible to static resolution). Computed by
    /// [`crate::slots::resolve_slots`].
    pub has_direct_eval: bool,
}

impl Function {
    /// The names this function declares directly: params, vars, hoisted
    /// functions, and the self-binding of a named function expression
    /// (possibly with repeats).
    pub(crate) fn declared_names(&self) -> impl Iterator<Item = Sym> + '_ {
        self.params
            .iter()
            .copied()
            .chain(self.decls.vars.iter().copied())
            .chain(self.decls.funcs.iter().map(|(n, _)| *n))
            .chain(self.name.filter(|_| self.bind_self))
    }

    /// The slot index of a local, if `sym` is one of this function's
    /// locals. Linear scan: locals lists are short and syms compare as
    /// `u32`s.
    pub fn local_slot(&self, sym: Sym) -> Option<u32> {
        self.locals.iter().position(|&l| l == sym).map(|i| i as u32)
    }
}

/// Side-table entry for a statement id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StmtInfo {
    /// The statement's source span.
    pub span: Span,
    /// The function containing the statement.
    pub func: FuncId,
    /// Dense index of the statement within its function (assignment
    /// order). Per-frame occurrence counters index a flat vector with
    /// this instead of hashing the global `StmtId`.
    pub local: u32,
}

/// A whole lowered program: an arena of functions plus statement
/// side-tables. Functions may be appended after initial lowering (by
/// `eval` at runtime, or by the specializer).
///
/// Functions are stored behind `Rc` so the interpreters can keep the
/// function they are executing alive for O(1) instead of deep-cloning
/// its body on every call; the specializer mutates via
/// [`Program::func_mut`] (copy-on-write).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All functions; `FuncId` indexes into this.
    pub funcs: Vec<Rc<Function>>,
    /// Per-statement info; `StmtId` indexes into this.
    pub stmt_info: Vec<StmtInfo>,
    /// The symbol table resolving every [`Sym`] in the program.
    pub interner: Interner,
    /// Per-function statement counts (the next `StmtInfo::local` index).
    func_stmts: Vec<u32>,
}

impl Program {
    /// Creates an empty program (with the well-known names pre-interned).
    pub fn new() -> Self {
        Program::default()
    }

    /// The entry function (the first one lowered), if any.
    pub fn entry(&self) -> Option<FuncId> {
        if self.funcs.is_empty() {
            None
        } else {
            Some(FuncId(0))
        }
    }

    /// Looks up a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// A shared handle to a function — what the machines hold while
    /// executing it (an O(1) clone).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_rc(&self, id: FuncId) -> Rc<Function> {
        Rc::clone(&self.funcs[id.0 as usize])
    }

    /// Mutable access to a function (copy-on-write if the machines hold
    /// a live handle to it).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        Rc::make_mut(&mut self.funcs[id.0 as usize])
    }

    /// Source span of a statement.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn span_of(&self, id: StmtId) -> Span {
        self.stmt_info[id.0 as usize].span
    }

    /// The function containing a statement.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_of(&self, id: StmtId) -> FuncId {
        self.stmt_info[id.0 as usize].func
    }

    /// Dense within-function index of a statement.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn local_of(&self, id: StmtId) -> u32 {
        self.stmt_info[id.0 as usize].local
    }

    /// Number of statements allocated to `func` so far — the size a
    /// per-frame dense occurrence vector needs.
    pub fn stmt_count_of(&self, func: FuncId) -> u32 {
        self.func_stmts.get(func.0 as usize).copied().unwrap_or(0)
    }

    /// Allocates a fresh statement id.
    pub fn fresh_stmt(&mut self, span: Span, func: FuncId) -> StmtId {
        let id = StmtId(self.stmt_info.len() as u32);
        let fidx = func.0 as usize;
        if self.func_stmts.len() <= fidx {
            self.func_stmts.resize(fidx + 1, 0);
        }
        let local = self.func_stmts[fidx];
        self.func_stmts[fidx] += 1;
        self.stmt_info.push(StmtInfo { span, func, local });
        id
    }

    /// Reserves a function id; the caller fills the slot via
    /// [`Program::set_func`].
    pub fn reserve_func(&mut self) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(Rc::new(Function {
            id,
            name: None,
            params: Vec::new(),
            decls: Decls::default(),
            n_temps: 0,
            body: Vec::new(),
            span: Span::synthetic(),
            kind: FuncKind::Function,
            parent: None,
            bind_self: false,
            specialized_from: None,
            locals: Vec::new(),
            has_direct_eval: false,
        }));
        if self.func_stmts.len() <= id.0 as usize {
            self.func_stmts.resize(id.0 as usize + 1, 0);
        }
        id
    }

    /// Replaces a reserved slot with its real function.
    ///
    /// # Panics
    ///
    /// Panics if `f.id` does not name a reserved slot.
    pub fn set_func(&mut self, f: Function) {
        let idx = f.id.0 as usize;
        self.funcs[idx] = Rc::new(f);
    }

    /// Total number of statements lowered so far.
    pub fn stmt_count(&self) -> usize {
        self.stmt_info.len()
    }

    /// Iterates over all statements of a block tree, depth-first, without
    /// descending into other functions.
    pub fn walk_block<'a>(block: &'a [Stmt], visit: &mut dyn FnMut(&'a Stmt)) {
        for s in block {
            visit(s);
            match &s.kind {
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    Self::walk_block(then_blk, visit);
                    Self::walk_block(else_blk, visit);
                }
                StmtKind::Loop {
                    cond_blk,
                    body,
                    update,
                    ..
                } => {
                    Self::walk_block(cond_blk, visit);
                    Self::walk_block(body, visit);
                    Self::walk_block(update, visit);
                }
                StmtKind::Breakable { body } => Self::walk_block(body, visit),
                StmtKind::Try {
                    block,
                    catch,
                    finally,
                } => {
                    Self::walk_block(block, visit);
                    if let Some((_, b)) = catch {
                        Self::walk_block(b, visit);
                    }
                    if let Some(b) = finally {
                        Self::walk_block(b, visit);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stmt_ids_are_sequential() {
        let mut p = Program::new();
        let f = p.reserve_func();
        let a = p.fresh_stmt(Span::synthetic(), f);
        let b = p.fresh_stmt(Span::synthetic(), f);
        assert_eq!(a, StmtId(0));
        assert_eq!(b, StmtId(1));
        assert_eq!(p.func_of(b), f);
    }

    #[test]
    fn local_indices_are_dense_per_function() {
        let mut p = Program::new();
        let f = p.reserve_func();
        let g = p.reserve_func();
        let a = p.fresh_stmt(Span::synthetic(), f);
        let b = p.fresh_stmt(Span::synthetic(), g);
        let c = p.fresh_stmt(Span::synthetic(), f);
        assert_eq!(p.local_of(a), 0);
        assert_eq!(p.local_of(b), 0);
        assert_eq!(p.local_of(c), 1);
        assert_eq!(p.stmt_count_of(f), 2);
        assert_eq!(p.stmt_count_of(g), 1);
    }

    #[test]
    fn walk_visits_nested_statements() {
        let mut p = Program::new();
        let f = p.reserve_func();
        let mk = |p: &mut Program, kind| Stmt {
            id: p.fresh_stmt(Span::synthetic(), f),
            span: Span::synthetic(),
            kind,
        };
        let inner = mk(
            &mut p,
            StmtKind::Const {
                dst: Place::Temp(TempId(0)),
                lit: mujs_syntax::ast::Lit::Num(1.0),
            },
        );
        let iff = mk(
            &mut p,
            StmtKind::If {
                cond: Place::Temp(TempId(0)),
                then_blk: vec![inner],
                else_blk: vec![],
            },
        );
        let block = vec![iff];
        let mut seen = 0;
        Program::walk_block(&block, &mut |_| seen += 1);
        assert_eq!(seen, 2);
    }

    #[test]
    fn func_mut_is_copy_on_write() {
        let mut p = Program::new();
        let f = p.reserve_func();
        let held = p.func_rc(f);
        p.func_mut(f).n_temps = 7;
        assert_eq!(held.n_temps, 0, "live handle must not see the mutation");
        assert_eq!(p.func(f).n_temps, 7);
    }
}
