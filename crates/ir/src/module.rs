//! Modules: the unit of separate compilation.
//!
//! A front end translates a high-level source program into one or more C--
//! modules (§3.3). A module contains procedures, global register
//! declarations, and static data blocks (used among other things as the
//! call-site *descriptors* consulted by `GetDescriptor`).

use crate::expr::Lit;
use crate::name::Name;
use crate::proc::Proc;
use crate::ty::Ty;

/// One item of a static data block.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum DataItem {
    /// Initialized words of the given type.
    Words(Ty, Vec<Lit>),
    /// The address of another data block or procedure (a link-time
    /// constant of the native pointer type).
    SymRef(Name),
    /// `n` bytes of uninitialized (zeroed) space.
    Space(u64),
    /// A NUL-terminated string constant.
    Str(String),
}

impl DataItem {
    /// Size of the item in bytes.
    pub fn size(&self) -> u64 {
        match self {
            DataItem::Words(ty, lits) => ty.bytes() * lits.len() as u64,
            DataItem::SymRef(_) => Ty::NATIVE_PTR.bytes(),
            DataItem::Space(n) => *n,
            DataItem::Str(s) => s.len() as u64 + 1,
        }
    }
}

/// A named static data block, allocated globally.
///
/// The name denotes the immutable *address* of the block (names "stand for
/// addresses of memory blocks, and as such they denote immutable values of
/// the native data-pointer type", §3.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DataBlock {
    /// The block's name.
    pub name: Name,
    /// The block's contents, laid out in order.
    pub items: Vec<DataItem>,
    /// Whether the block is exported.
    pub exported: bool,
}

impl DataBlock {
    /// Creates a data block.
    pub fn new(name: impl Into<Name>, items: Vec<DataItem>) -> DataBlock {
        DataBlock {
            name: name.into(),
            items,
            exported: false,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.items.iter().map(DataItem::size).sum()
    }
}

/// A global register declaration, e.g. `register bits32 exn_top;`
/// (Figure 10 uses one to hold the top of the dynamic exception stack).
///
/// Global variables model machine registers, not memory locations; they
/// have no addresses and are shared by all procedures.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GlobalReg {
    /// The register's name.
    pub name: Name,
    /// Its type.
    pub ty: Ty,
    /// Optional initial value (defaults to zero).
    pub init: Option<Lit>,
}

/// A top-level declaration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Decl {
    /// A procedure.
    Proc(Proc),
    /// A static data block.
    Data(DataBlock),
    /// A global register.
    Register(GlobalReg),
    /// Names imported from other modules.
    Import(Vec<Name>),
    /// Names exported to other modules.
    Export(Vec<Name>),
}

/// A C-- module (compilation unit).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Module {
    /// Top-level declarations, in source order.
    pub decls: Vec<Decl>,
}

impl Module {
    /// An empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Iterates over the module's procedures.
    pub fn procs(&self) -> impl Iterator<Item = &Proc> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Proc(p) => Some(p),
            _ => None,
        })
    }

    /// Iterates over the module's data blocks.
    pub fn data_blocks(&self) -> impl Iterator<Item = &DataBlock> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Data(b) => Some(b),
            _ => None,
        })
    }

    /// Iterates over the module's global registers.
    pub fn registers(&self) -> impl Iterator<Item = &GlobalReg> {
        self.decls.iter().filter_map(|d| match d {
            Decl::Register(r) => Some(r),
            _ => None,
        })
    }

    /// Finds a procedure by name.
    pub fn proc(&self, name: &str) -> Option<&Proc> {
        self.procs().find(|p| p.name == name)
    }

    /// Finds a data block by name.
    pub fn data_block(&self, name: &str) -> Option<&DataBlock> {
        self.data_blocks().find(|b| b.name == name)
    }

    /// Adds a procedure.
    pub fn push_proc(&mut self, p: Proc) {
        self.decls.push(Decl::Proc(p));
    }

    /// Adds a data block.
    pub fn push_data(&mut self, b: DataBlock) {
        self.decls.push(Decl::Data(b));
    }

    /// Adds a global register.
    pub fn push_register(&mut self, r: GlobalReg) {
        self.decls.push(Decl::Register(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_block_sizes() {
        let b = DataBlock::new(
            "d",
            vec![
                DataItem::Words(Ty::B32, vec![Lit::b32(1), Lit::b32(2)]),
                DataItem::SymRef(Name::from("f")),
                DataItem::Space(3),
                DataItem::Str("hi".into()),
            ],
        );
        assert_eq!(b.size(), 8 + 4 + 3 + 3);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        m.push_proc(Proc::new("f"));
        m.push_data(DataBlock::new("d", vec![]));
        m.push_register(GlobalReg {
            name: Name::from("exn_top"),
            ty: Ty::B32,
            init: None,
        });
        assert!(m.proc("f").is_some());
        assert!(m.proc("g").is_none());
        assert!(m.data_block("d").is_some());
        assert_eq!(m.registers().count(), 1);
    }
}
