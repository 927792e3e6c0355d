//! Linking: laying out static data and assigning code addresses.
//!
//! The abstract machine's memory `M` maps addresses to values (§5). To
//! let programs store and compare pointers, the builder lays out every
//! `data` block at a fixed address and assigns each procedure a synthetic
//! *code address* (a link-time constant that stands for its `Code` value
//! when stored in memory, as Figure 9's descriptor tables do with handler
//! entry points).
//!
//! The layout is:
//!
//! * data blocks from [`DataImage::DATA_BASE`] upward, 8-byte aligned;
//! * code addresses from [`DataImage::CODE_BASE`] upward, 16 bytes apart
//!   (so they can never collide with data addresses).

use cmm_ir::{DataItem, Module, Name, Ty};
use std::collections::BTreeMap;

/// The linked image of a module's static data.
#[derive(Clone, Debug, Default)]
pub struct DataImage {
    /// Initial memory contents: address → byte.
    pub bytes: BTreeMap<u64, u8>,
    /// Address of every symbol (data blocks and procedures).
    pub symbols: BTreeMap<Name, u64>,
    /// Reverse map for code addresses only.
    pub code_syms: BTreeMap<u64, Name>,
    /// First address past the static data.
    pub data_end: u64,
}

impl DataImage {
    /// Base address of static data.
    pub const DATA_BASE: u64 = 0x1000;
    /// Base of the synthetic code-address range.
    pub const CODE_BASE: u64 = 0x4000_0000;

    /// Address of a symbol, if defined.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// The procedure name a synthetic code address denotes, if any.
    pub fn code_symbol_at(&self, addr: u64) -> Option<&Name> {
        self.code_syms.get(&addr)
    }

    /// Builds the image for a module. Procedure names get code
    /// addresses; data blocks are laid out and their initializers
    /// (including `sym` references to any symbol) are resolved.
    ///
    /// # Errors
    ///
    /// Returns the name of any `sym` reference that is not defined in
    /// the module.
    pub fn link(module: &Module) -> Result<DataImage, Name> {
        let mut img = DataImage::default();
        // Pass 1: assign code addresses to procedures...
        let mut code = Self::CODE_BASE;
        for p in module.procs() {
            img.symbols.insert(p.name.clone(), code);
            img.code_syms.insert(code, p.name.clone());
            code += 16;
        }
        // ...and data addresses to blocks.
        let mut addr = Self::DATA_BASE;
        let mut placed: Vec<(u64, &cmm_ir::DataBlock)> = Vec::new();
        for b in module.data_blocks() {
            addr = align8(addr);
            img.symbols.insert(b.name.clone(), addr);
            placed.push((addr, b));
            addr += b.size();
        }
        img.data_end = addr;
        // Pass 2: fill initializers (sym refs now resolvable).
        for (base, b) in placed {
            let mut at = base;
            for item in &b.items {
                match item {
                    DataItem::Words(ty, lits) => {
                        for lit in lits {
                            img.write_le(at, lit.bits, ty.bytes());
                            at += ty.bytes();
                        }
                    }
                    DataItem::SymRef(n) => {
                        let target = img.symbol(n.as_str()).ok_or_else(|| n.clone())?;
                        img.write_le(at, target, Ty::NATIVE_PTR.bytes());
                        at += Ty::NATIVE_PTR.bytes();
                    }
                    DataItem::Space(n) => {
                        // Uninitialized space reads as zero without
                        // materializing bytes in the image.
                        at += n;
                    }
                    DataItem::Str(s) => {
                        for (i, byte) in s.bytes().enumerate() {
                            img.bytes.insert(at + i as u64, byte);
                        }
                        img.bytes.insert(at + s.len() as u64, 0);
                        at += s.len() as u64 + 1;
                    }
                }
            }
        }
        Ok(img)
    }

    fn write_le(&mut self, addr: u64, value: u64, bytes: u64) {
        for i in 0..bytes {
            self.bytes
                .insert(addr + i, ((value >> (8 * i)) & 0xff) as u8);
        }
    }

    /// Reads `bytes` little-endian bytes from the image (zero where
    /// uninitialized), for the tests to check a layout.
    #[cfg(test)]
    fn read_le(&self, addr: u64, bytes: u64) -> u64 {
        let mut v = 0u64;
        for i in 0..bytes {
            v |= u64::from(*self.bytes.get(&(addr + i)).unwrap_or(&0)) << (8 * i);
        }
        v
    }
}

fn align8(a: u64) -> u64 {
    (a + 7) & !7
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_ir::{DataBlock, Lit, Proc};

    #[test]
    fn links_words_and_strings() {
        let mut m = Module::new();
        m.push_data(DataBlock::new(
            "d",
            vec![
                DataItem::Words(Ty::B32, vec![Lit::b32(0xdeadbeef)]),
                DataItem::Str("hi".into()),
            ],
        ));
        let img = DataImage::link(&m).unwrap();
        let base = img.symbol("d").unwrap();
        assert_eq!(img.read_le(base, 4), 0xdeadbeef);
        assert_eq!(img.read_le(base + 4, 1), u64::from(b'h'));
        assert_eq!(img.read_le(base + 6, 1), 0); // NUL
    }

    #[test]
    fn sym_refs_resolve_to_code_and_data() {
        let mut m = Module::new();
        m.push_proc(Proc::new("handler"));
        m.push_data(DataBlock::new(
            "t",
            vec![DataItem::SymRef(Name::from("handler"))],
        ));
        let img = DataImage::link(&m).unwrap();
        let base = img.symbol("t").unwrap();
        let code_addr = img.read_le(base, 4);
        assert_eq!(img.code_symbol_at(code_addr).unwrap(), "handler");
    }

    #[test]
    fn undefined_sym_is_an_error() {
        let mut m = Module::new();
        m.push_data(DataBlock::new(
            "t",
            vec![DataItem::SymRef(Name::from("nowhere"))],
        ));
        assert_eq!(DataImage::link(&m).unwrap_err(), Name::from("nowhere"));
    }

    #[test]
    fn blocks_are_aligned_and_disjoint() {
        let mut m = Module::new();
        m.push_data(DataBlock::new("a", vec![DataItem::Str("xyz".into())])); // 4 bytes
        m.push_data(DataBlock::new(
            "b",
            vec![DataItem::Words(Ty::B32, vec![Lit::b32(5)])],
        ));
        let img = DataImage::link(&m).unwrap();
        let a = img.symbol("a").unwrap();
        let b = img.symbol("b").unwrap();
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 4);
    }
}
