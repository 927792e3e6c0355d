//! Pure C-- expressions.
//!
//! Per §4.3 of the paper: "C-- expressions represent pure computations on
//! values; they are evaluated without side effects, which occur only as the
//! result of assignments or calls."
//!
//! Operators in the `%` namespace that can fail (like `%divu` with a zero
//! divisor) have *unspecified* behaviour on failure; our operational
//! semantics makes such evaluation "go wrong". The slow-but-solid `%%`
//! variants are not expressions — they take the form of procedure calls and
//! map failure onto a `yield` (see `cmm-sem`).

use crate::name::Name;
use crate::ty::{FWidth, Ty, Width};
use std::fmt;

/// A literal constant, stored as the raw bit pattern of its type.
///
/// Floating literals store the IEEE-754 bits of the value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Lit {
    /// The type of the literal.
    pub ty: Ty,
    /// The bit pattern, zero-extended to 64 bits.
    pub bits: u64,
}

impl Lit {
    /// A `bitsN` literal; the value is truncated to the width.
    pub fn bits(width: Width, value: u64) -> Lit {
        Lit {
            ty: Ty::Bits(width),
            bits: value & width.mask(),
        }
    }

    /// A `bits32` literal.
    pub fn b32(value: u32) -> Lit {
        Lit::bits(Width::W32, u64::from(value))
    }

    /// A `bits64` literal.
    pub fn b64(value: u64) -> Lit {
        Lit::bits(Width::W64, value)
    }

    /// A `float32` literal.
    pub fn f32(value: f32) -> Lit {
        Lit {
            ty: Ty::F32,
            bits: u64::from(value.to_bits()),
        }
    }

    /// A `float64` literal.
    pub fn f64(value: f64) -> Lit {
        Lit {
            ty: Ty::F64,
            bits: value.to_bits(),
        }
    }

    /// Interprets the bit pattern as `f64` (only meaningful for float types).
    pub fn as_f64(&self) -> f64 {
        match self.ty {
            Ty::Float(FWidth::F32) => f64::from(f32::from_bits(self.bits as u32)),
            _ => f64::from_bits(self.bits),
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ty {
            Ty::Bits(Width::W32) => write!(f, "{}", self.bits),
            Ty::Bits(w) => write!(f, "{}::bits{}", self.bits, w.bits()),
            Ty::Float(w) => write!(f, "{:?}::float{}", self.as_f64(), w.bits()),
        }
    }
}

/// Sign-extends the low `w` bits of `bits` to an `i64`.
pub fn sign_extend(bits: u64, w: Width) -> i64 {
    let shift = 64 - w.bits();
    ((bits << shift) as i64) >> shift
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Two's-complement negation (`%neg`).
    Neg,
    /// Bitwise complement (`%com`).
    Com,
    /// Zero-extend to the given width (`%zx32` etc.).
    Zx(Width),
    /// Sign-extend to the given width (`%sx32` etc.).
    Sx(Width),
    /// Truncate to the low bits of the given width (`%lo8` etc.).
    Lo(Width),
    /// Floating negation (`%fneg`).
    FNeg,
}

impl UnOp {
    /// The operator's name in concrete syntax.
    pub fn name(self) -> String {
        match self {
            UnOp::Neg => "%neg".into(),
            UnOp::Com => "%com".into(),
            UnOp::Zx(w) => format!("%zx{}", w.bits()),
            UnOp::Sx(w) => format!("%sx{}", w.bits()),
            UnOp::Lo(w) => format!("%lo{}", w.bits()),
            UnOp::FNeg => "%fneg".into(),
        }
    }

    /// Evaluates the operator on a bit pattern of width `w`.
    ///
    /// Returns the result bits and the result width.
    pub fn eval(self, w: Width, a: u64) -> (u64, Width) {
        match self {
            UnOp::Neg => (a.wrapping_neg() & w.mask(), w),
            UnOp::Com => (!a & w.mask(), w),
            UnOp::Zx(to) => (a & w.mask() & to.mask(), to),
            UnOp::Sx(to) => ((sign_extend(a, w) as u64) & to.mask(), to),
            UnOp::Lo(to) => (a & to.mask(), to),
            UnOp::FNeg => match w {
                Width::W32 => (u64::from((-f32::from_bits(a as u32)).to_bits()), w),
                _ => ((-f64::from_bits(a)).to_bits(), w),
            },
        }
    }
}

/// Binary operators.
///
/// Comparison operators yield `bits32` 1 (true) or 0 (false). Division and
/// modulus by zero are failures: the fast `%`-variants' behaviour is
/// unspecified, which the semantics models by going wrong.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (`%divu`); fails on zero divisor.
    DivU,
    /// Unsigned modulus (`%modu`); fails on zero divisor.
    ModU,
    /// Signed division (`%divs`); fails on zero divisor or overflow.
    DivS,
    /// Signed modulus (`%mods`); fails on zero divisor.
    ModS,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Shift left; fails if the shift amount is ≥ the width.
    Shl,
    /// Logical shift right; fails if the shift amount is ≥ the width.
    ShrU,
    /// Arithmetic shift right; fails if the shift amount is ≥ the width.
    ShrS,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Unsigned less-than.
    LtU,
    /// Unsigned less-or-equal.
    LeU,
    /// Unsigned greater-than.
    GtU,
    /// Unsigned greater-or-equal.
    GeU,
    /// Signed less-than.
    LtS,
    /// Signed less-or-equal.
    LeS,
    /// Signed greater-than.
    GtS,
    /// Signed greater-or-equal.
    GeS,
    /// Floating addition.
    FAdd,
    /// Floating subtraction.
    FSub,
    /// Floating multiplication.
    FMul,
    /// Floating division.
    FDiv,
    /// Floating equality.
    FEq,
    /// Floating less-than.
    FLt,
    /// Floating less-or-equal.
    FLe,
}

/// Why a pure operator application failed to produce a value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpError {
    /// Division or modulus by zero.
    DivideByZero,
    /// Signed division overflow (`MIN / -1`).
    Overflow,
    /// Shift amount not less than the operand width.
    ShiftOutOfRange,
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::DivideByZero => write!(f, "division by zero"),
            OpError::Overflow => write!(f, "signed division overflow"),
            OpError::ShiftOutOfRange => write!(f, "shift amount out of range"),
        }
    }
}

impl std::error::Error for OpError {}

impl BinOp {
    /// The operator's concrete-syntax spelling, infix where one exists.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::DivU => "/",
            BinOp::ModU => "%",
            BinOp::DivS => "%divs",
            BinOp::ModS => "%mods",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::ShrU => ">>",
            BinOp::ShrS => "%shrs",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::LtU => "<",
            BinOp::LeU => "<=",
            BinOp::GtU => ">",
            BinOp::GeU => ">=",
            BinOp::LtS => "%lts",
            BinOp::LeS => "%les",
            BinOp::GtS => "%gts",
            BinOp::GeS => "%ges",
            BinOp::FAdd => "%fadd",
            BinOp::FSub => "%fsub",
            BinOp::FMul => "%fmul",
            BinOp::FDiv => "%fdiv",
            BinOp::FEq => "%feq",
            BinOp::FLt => "%flt",
            BinOp::FLe => "%fle",
        }
    }

    /// True if the operator is written infix in concrete syntax (the
    /// bare `%` of `%modu` is infix; multi-character `%`-names like
    /// `%divs` are prefix applications).
    pub fn is_infix(self) -> bool {
        let s = self.symbol();
        s == "%" || !s.starts_with('%')
    }

    /// True if this is a comparison (result is a `bits32` truth value).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::LtU
                | BinOp::LeU
                | BinOp::GtU
                | BinOp::GeU
                | BinOp::LtS
                | BinOp::LeS
                | BinOp::GtS
                | BinOp::GeS
                | BinOp::FEq
                | BinOp::FLt
                | BinOp::FLe
        )
    }

    /// True if this operator can fail (and therefore has a `%%` variant).
    pub fn can_fail(self) -> bool {
        matches!(
            self,
            BinOp::DivU
                | BinOp::ModU
                | BinOp::DivS
                | BinOp::ModS
                | BinOp::Shl
                | BinOp::ShrU
                | BinOp::ShrS
        )
    }

    /// Looks up a fallible primitive by checked name, e.g. `"%%divu"`.
    pub fn checked_primitive(name: &str) -> Option<BinOp> {
        match name {
            "%%divu" => Some(BinOp::DivU),
            "%%modu" => Some(BinOp::ModU),
            "%%divs" => Some(BinOp::DivS),
            "%%mods" => Some(BinOp::ModS),
            "%%shl" => Some(BinOp::Shl),
            "%%shru" => Some(BinOp::ShrU),
            "%%shrs" => Some(BinOp::ShrS),
            _ => None,
        }
    }

    /// Evaluates the operator on two bit patterns of width `w`.
    ///
    /// Returns the result bits and result width (comparisons yield `W32`).
    ///
    /// # Errors
    ///
    /// Returns an [`OpError`] when the operation fails (zero divisor,
    /// signed overflow, out-of-range shift). Callers decide whether failure
    /// is "unspecified behaviour" (`%divu`: go wrong) or a `yield`
    /// (`%%divu`).
    pub fn eval(self, w: Width, a: u64, b: u64) -> Result<(u64, Width), OpError> {
        let m = w.mask();
        let bool32 = |c: bool| (u64::from(c), Width::W32);
        let sa = sign_extend(a, w);
        let sb = sign_extend(b, w);
        Ok(match self {
            BinOp::Add => (a.wrapping_add(b) & m, w),
            BinOp::Sub => (a.wrapping_sub(b) & m, w),
            BinOp::Mul => (a.wrapping_mul(b) & m, w),
            BinOp::DivU => {
                if b & m == 0 {
                    return Err(OpError::DivideByZero);
                }
                ((a & m) / (b & m), w)
            }
            BinOp::ModU => {
                if b & m == 0 {
                    return Err(OpError::DivideByZero);
                }
                ((a & m) % (b & m), w)
            }
            BinOp::DivS => {
                if sb == 0 {
                    return Err(OpError::DivideByZero);
                }
                let min = -(1i64 << (w.bits() - 1));
                if sa == min && sb == -1 {
                    return Err(OpError::Overflow);
                }
                (((sa / sb) as u64) & m, w)
            }
            BinOp::ModS => {
                if sb == 0 {
                    return Err(OpError::DivideByZero);
                }
                let min = -(1i64 << (w.bits() - 1));
                if sa == min && sb == -1 {
                    (0, w)
                } else {
                    (((sa % sb) as u64) & m, w)
                }
            }
            BinOp::And => (a & b & m, w),
            BinOp::Or => ((a | b) & m, w),
            BinOp::Xor => ((a ^ b) & m, w),
            BinOp::Shl => {
                if b >= u64::from(w.bits()) {
                    return Err(OpError::ShiftOutOfRange);
                }
                ((a << b) & m, w)
            }
            BinOp::ShrU => {
                if b >= u64::from(w.bits()) {
                    return Err(OpError::ShiftOutOfRange);
                }
                (((a & m) >> b) & m, w)
            }
            BinOp::ShrS => {
                if b >= u64::from(w.bits()) {
                    return Err(OpError::ShiftOutOfRange);
                }
                (((sa >> b) as u64) & m, w)
            }
            BinOp::Eq => bool32(a & m == b & m),
            BinOp::Ne => bool32(a & m != b & m),
            BinOp::LtU => bool32((a & m) < (b & m)),
            BinOp::LeU => bool32((a & m) <= (b & m)),
            BinOp::GtU => bool32((a & m) > (b & m)),
            BinOp::GeU => bool32((a & m) >= (b & m)),
            BinOp::LtS => bool32(sa < sb),
            BinOp::LeS => bool32(sa <= sb),
            BinOp::GtS => bool32(sa > sb),
            BinOp::GeS => bool32(sa >= sb),
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {
                let (x, y) = (float_of(a, w), float_of(b, w));
                let r = match self {
                    BinOp::FAdd => x + y,
                    BinOp::FSub => x - y,
                    BinOp::FMul => x * y,
                    _ => x / y,
                };
                (float_to(r, w), w)
            }
            BinOp::FEq => bool32(float_of(a, w) == float_of(b, w)),
            BinOp::FLt => bool32(float_of(a, w) < float_of(b, w)),
            BinOp::FLe => bool32(float_of(a, w) <= float_of(b, w)),
        })
    }
}

fn float_of(bits: u64, w: Width) -> f64 {
    match w {
        Width::W32 => f64::from(f32::from_bits(bits as u32)),
        _ => f64::from_bits(bits),
    }
}

fn float_to(v: f64, w: Width) -> u64 {
    match w {
        Width::W32 => u64::from((v as f32).to_bits()),
        _ => v.to_bits(),
    }
}

/// A pure C-- expression.
///
/// Names are not resolved syntactically: an `Expr::Name` may denote a local
/// variable, a global register, a continuation value, or (per §5.1's
/// evaluation function `E`) a procedure or data-block name, which denotes an
/// immutable code- or data-pointer value.
#[derive(Clone, PartialEq, Hash, Debug)]
pub enum Expr {
    /// A literal constant.
    Lit(Lit),
    /// A variable, continuation, procedure, or data-block name.
    Name(Name),
    /// A typed memory load, `type[e]`.
    Mem(Ty, Box<Expr>),
    /// A unary operator application.
    Unary(UnOp, Box<Expr>),
    /// A binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Eq for Expr {}

impl Expr {
    /// A `bits32` literal expression.
    pub fn b32(v: u32) -> Expr {
        Expr::Lit(Lit::b32(v))
    }

    /// A `bits64` literal expression.
    pub fn b64(v: u64) -> Expr {
        Expr::Lit(Lit::b64(v))
    }

    /// A variable (or other name) reference.
    pub fn var(n: impl Into<Name>) -> Expr {
        Expr::Name(n.into())
    }

    /// A `bits32` memory load.
    pub fn mem32(addr: Expr) -> Expr {
        Expr::Mem(Ty::B32, Box::new(addr))
    }

    /// A typed memory load.
    pub fn mem(ty: Ty, addr: Expr) -> Expr {
        Expr::Mem(ty, Box::new(addr))
    }

    /// A binary operator application.
    pub fn binary(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// A unary operator application.
    pub fn unary(op: UnOp, a: Expr) -> Expr {
        Expr::Unary(op, Box::new(a))
    }

    /// `a + b`.
    #[allow(clippy::should_implement_trait)] // constructor, not arithmetic on Expr values
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::binary(BinOp::Add, a, b)
    }

    /// `a - b`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::binary(BinOp::Sub, a, b)
    }

    /// `a * b`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::binary(BinOp::Mul, a, b)
    }

    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::binary(BinOp::Eq, a, b)
    }

    /// Visits every name mentioned in the expression.
    pub fn visit_names(&self, f: &mut impl FnMut(&Name)) {
        match self {
            Expr::Lit(_) => {}
            Expr::Name(n) => f(n),
            Expr::Mem(_, a) => a.visit_names(f),
            Expr::Unary(_, a) => a.visit_names(f),
            Expr::Binary(_, a, b) => {
                a.visit_names(f);
                b.visit_names(f);
            }
        }
    }

    /// Collects every name mentioned in the expression.
    pub fn names(&self) -> Vec<Name> {
        let mut out = Vec::new();
        self.visit_names(&mut |n| out.push(n.clone()));
        out
    }

    /// True if the expression reads memory (mentions the pseudo-variable
    /// `M` of Table 3).
    pub fn reads_memory(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::Name(_) => false,
            Expr::Mem(..) => true,
            Expr::Unary(_, a) => a.reads_memory(),
            Expr::Binary(_, a, b) => a.reads_memory() || b.reads_memory(),
        }
    }

    /// True if the expression can fail when evaluated (contains a fallible
    /// operator such as `%divu`).
    pub fn can_fail(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::Name(_) => false,
            Expr::Mem(_, a) => a.can_fail(),
            Expr::Unary(_, a) => a.can_fail(),
            Expr::Binary(op, a, b) => op.can_fail() || a.can_fail() || b.can_fail(),
        }
    }

    /// Rewrites the expression, replacing each name for which `subst`
    /// returns `Some` with the returned expression.
    pub fn substitute(&self, subst: &impl Fn(&Name) -> Option<Expr>) -> Expr {
        match self {
            Expr::Lit(l) => Expr::Lit(*l),
            Expr::Name(n) => subst(n).unwrap_or_else(|| Expr::Name(n.clone())),
            Expr::Mem(ty, a) => Expr::Mem(*ty, Box::new(a.substitute(subst))),
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(a.substitute(subst))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.substitute(subst)),
                Box::new(b.substitute(subst)),
            ),
        }
    }

    /// Number of interior nodes, for size-bounded generators and tests.
    pub fn size(&self) -> usize {
        match self {
            Expr::Lit(_) | Expr::Name(_) => 1,
            Expr::Mem(_, a) | Expr::Unary(_, a) => 1 + a.size(),
            Expr::Binary(_, a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl From<Lit> for Expr {
    fn from(l: Lit) -> Expr {
        Expr::Lit(l)
    }
}

impl From<Name> for Expr {
    fn from(n: Name) -> Expr {
        Expr::Name(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_truncates_to_width() {
        assert_eq!(Lit::bits(Width::W8, 0x1ff).bits, 0xff);
        assert_eq!(Lit::b32(7).bits, 7);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xff, Width::W8), -1);
        assert_eq!(sign_extend(0x7f, Width::W8), 127);
        assert_eq!(sign_extend(0xffff_ffff, Width::W32), -1);
    }

    #[test]
    fn add_wraps_at_width() {
        let (r, w) = BinOp::Add.eval(Width::W8, 0xff, 1).unwrap();
        assert_eq!((r, w), (0, Width::W8));
    }

    #[test]
    fn divu_by_zero_fails() {
        assert_eq!(
            BinOp::DivU.eval(Width::W32, 10, 0),
            Err(OpError::DivideByZero)
        );
        assert_eq!(BinOp::DivU.eval(Width::W32, 10, 3).unwrap().0, 3);
    }

    #[test]
    fn divs_overflow_fails() {
        assert_eq!(
            BinOp::DivS.eval(Width::W32, 0x8000_0000, 0xffff_ffff),
            Err(OpError::Overflow)
        );
        assert_eq!(
            BinOp::DivS.eval(Width::W32, 0xffff_fff6, 2).unwrap().0,
            0xffff_fffb
        ); // -10/2 = -5
    }

    #[test]
    fn shifts_check_range() {
        assert_eq!(
            BinOp::Shl.eval(Width::W32, 1, 32),
            Err(OpError::ShiftOutOfRange)
        );
        assert_eq!(BinOp::Shl.eval(Width::W32, 1, 31).unwrap().0, 0x8000_0000);
        assert_eq!(
            BinOp::ShrS.eval(Width::W32, 0x8000_0000, 31).unwrap().0,
            0xffff_ffff
        );
    }

    #[test]
    fn comparisons_yield_bits32() {
        let (r, w) = BinOp::LtS.eval(Width::W32, 0xffff_ffff, 0).unwrap(); // -1 < 0
        assert_eq!((r, w), (1, Width::W32));
        let (r, _) = BinOp::LtU.eval(Width::W32, 0xffff_ffff, 0).unwrap(); // MAX < 0
        assert_eq!(r, 0);
    }

    #[test]
    fn float_arithmetic_round_trips_bits() {
        let a = Lit::f64(1.5).bits;
        let b = Lit::f64(2.25).bits;
        let (r, _) = BinOp::FAdd.eval(Width::W64, a, b).unwrap();
        assert_eq!(f64::from_bits(r), 3.75);
        let af = Lit::f32(0.5).bits;
        let bf = Lit::f32(0.25).bits;
        let (rf, _) = BinOp::FMul.eval(Width::W32, af, bf).unwrap();
        assert_eq!(f32::from_bits(rf as u32), 0.125);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(UnOp::Neg.eval(Width::W32, 1).0, 0xffff_ffff);
        assert_eq!(UnOp::Com.eval(Width::W8, 0x0f).0, 0xf0);
        assert_eq!(UnOp::Sx(Width::W32).eval(Width::W8, 0x80).0, 0xffff_ff80);
        assert_eq!(UnOp::Zx(Width::W32).eval(Width::W8, 0x80).0, 0x80);
        assert_eq!(UnOp::Lo(Width::W8).eval(Width::W32, 0x1234).0, 0x34);
    }

    #[test]
    fn expr_names_and_memory() {
        let e = Expr::add(Expr::mem32(Expr::var("p")), Expr::var("x"));
        let names = e.names();
        assert_eq!(names.len(), 2);
        assert!(e.reads_memory());
        assert!(!Expr::var("x").reads_memory());
    }

    #[test]
    fn expr_can_fail_detects_division() {
        let e = Expr::binary(BinOp::DivU, Expr::var("a"), Expr::var("b"));
        assert!(e.can_fail());
        assert!(!Expr::add(Expr::var("a"), Expr::var("b")).can_fail());
    }

    #[test]
    fn substitution_replaces_names() {
        let e = Expr::add(Expr::var("x"), Expr::var("y"));
        let s = e.substitute(&|n| (n == "x").then(|| Expr::b32(3)));
        assert_eq!(s, Expr::add(Expr::b32(3), Expr::var("y")));
    }

    #[test]
    fn checked_primitive_lookup() {
        assert_eq!(BinOp::checked_primitive("%%divu"), Some(BinOp::DivU));
        assert_eq!(BinOp::checked_primitive("%%mods"), Some(BinOp::ModS));
        assert_eq!(BinOp::checked_primitive("%%add"), None);
    }

    #[test]
    fn mods_min_by_minus_one_is_zero() {
        let (r, _) = BinOp::ModS
            .eval(Width::W32, 0x8000_0000, 0xffff_ffff)
            .unwrap();
        assert_eq!(r, 0);
    }
}
