//! Paged byte-addressed memory.

use cmm_ir::Width;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
// A 32-bit address splits into a 10-bit root index, a 10-bit leaf
// index, and a 12-bit page offset.
const LEAF_BITS: u32 = 10;
const LEAF_LEN: usize = 1 << LEAF_BITS;
const ROOT_LEN: usize = 1 << (32 - PAGE_BITS - LEAF_BITS);

type Page = Box<[u8; PAGE_SIZE]>;
type Leaf = [Option<Page>; LEAF_LEN];

const EMPTY_PAGE: Option<Page> = None;
const EMPTY_LEAF: Option<Box<Leaf>> = None;

/// Sparse little-endian memory. Unmapped bytes read as zero.
///
/// Pages live in a two-level table indexed directly by address bits, so
/// the load/store hot path is two dependent indexed reads — no hashing.
/// Leaf tables are allocated on demand (one per mapped 4 MiB region)
/// and, like the page pool below, are invisible to every observation.
///
/// Beside the table, the memory keeps the **keys of its mapped pages**
/// in address order. Everything that walks the whole memory —
/// [`Memory::snapshot`], [`Memory::recycle`], `clone`,
/// [`Memory::mapped_bytes`] — visits that list instead of probing the
/// table's 1024 root slots and 1024 slots per leaf, so its cost follows
/// the pages a thread touched (typically one data page and a few stack
/// pages), not the size of the address space.
///
/// Carries a private **page pool**: [`Memory::recycle`] unmaps every
/// page but banks the allocations, and subsequent writes draw from the
/// bank before touching the allocator. The pool is invisible to every
/// observation — reads, [`Memory::snapshot`], and [`Memory::mapped_bytes`]
/// see only mapped pages — which is what lets a batch worker reuse one
/// `Memory` across jobs unobserved.
#[derive(Debug)]
pub struct Memory {
    roots: Box<[Option<Box<Leaf>>; ROOT_LEN]>,
    /// Keys (`addr >> PAGE_BITS`) of the mapped pages, ascending.
    mapped: Vec<u32>,
    /// Zeroed pages banked by [`Memory::recycle`].
    pool: Vec<Page>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            roots: Box::new([EMPTY_LEAF; ROOT_LEN]),
            mapped: Vec::new(),
            pool: Vec::new(),
        }
    }
}

impl Clone for Memory {
    /// Clones the mapped contents. The recycle pool is not observable
    /// state and stays with the original.
    fn clone(&self) -> Memory {
        let mut m = Memory::default();
        for (key, page) in self.iter_pages() {
            *m.slot_mut(key) = Some(page.clone());
        }
        m.mapped = self.mapped.clone();
        m
    }
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Mapped pages in address order, with their page keys.
    fn iter_pages(&self) -> impl Iterator<Item = (u32, &Page)> {
        self.mapped.iter().map(|&key| {
            let page = self.roots[(key >> LEAF_BITS) as usize]
                .as_ref()
                .and_then(|leaf| leaf[(key as usize) & (LEAF_LEN - 1)].as_ref());
            (key, page.expect("mapped keys name mapped pages"))
        })
    }

    /// The table slot for page `key`, allocating its leaf on demand.
    fn slot_mut(&mut self, key: u32) -> &mut Option<Page> {
        let leaf = self.roots[(key >> LEAF_BITS) as usize]
            .get_or_insert_with(|| Box::new([EMPTY_PAGE; LEAF_LEN]));
        &mut leaf[(key as usize) & (LEAF_LEN - 1)]
    }

    /// The mapped page holding `addr`, if any.
    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        let key = addr >> PAGE_BITS;
        match &self.roots[(key >> LEAF_BITS) as usize] {
            Some(leaf) => leaf[(key as usize) & (LEAF_LEN - 1)].as_deref(),
            None => None,
        }
    }

    /// Bytes of mapped pages: how a test observes that recycling
    /// unmaps every page and that cloning maps the same ones.
    pub fn mapped_bytes(&self) -> usize {
        self.mapped.len() * PAGE_SIZE
    }

    /// Unmaps every page but keeps the allocations for reuse. The
    /// result is observationally a fresh `Memory::new()` — every byte
    /// reads zero, `mapped_bytes` is `0`, `snapshot` is empty — and a
    /// later write maps a banked (re-zeroed) page instead of
    /// allocating one. Leaf tables stay allocated; they hold no bytes.
    pub fn recycle(&mut self) {
        let mut mapped = std::mem::take(&mut self.mapped);
        for key in mapped.drain(..) {
            if let Some(mut page) = self.slot_mut(key).take() {
                page.fill(0);
                self.pool.push(page);
            }
        }
        self.mapped = mapped;
    }

    /// The mapped-or-banked page for `addr`, mapping one on demand.
    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let key = addr >> PAGE_BITS;
        let pool = &mut self.pool;
        let mapped = &mut self.mapped;
        let leaf = self.roots[(key >> LEAF_BITS) as usize]
            .get_or_insert_with(|| Box::new([EMPTY_PAGE; LEAF_LEN]));
        leaf[(key as usize) & (LEAF_LEN - 1)].get_or_insert_with(|| {
            // Pages map in near-address order (data upward, the stack
            // downward), so the insertion point is at or near the end.
            let at = mapped.partition_point(|&k| k < key);
            mapped.insert(at, key);
            pool.pop().unwrap_or_else(|| Box::new([0; PAGE_SIZE]))
        })
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        let page = self.page_mut(addr);
        page[(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Reads a little-endian value of the given width.
    pub fn read(&self, w: Width, addr: u32) -> u64 {
        let mut v = 0u64;
        for i in 0..w.bytes() {
            v |= u64::from(self.read_u8(addr.wrapping_add(i as u32))) << (8 * i);
        }
        v
    }

    /// Writes a little-endian value of the given width.
    pub fn write(&mut self, w: Width, addr: u32, v: u64) {
        for i in 0..w.bytes() {
            self.write_u8(addr.wrapping_add(i as u32), ((v >> (8 * i)) & 0xff) as u8);
        }
    }

    /// Reads a 32-bit word.
    pub fn read32(&self, addr: u32) -> u32 {
        self.read(Width::W32, addr) as u32
    }

    /// Writes a 32-bit word.
    pub fn write32(&mut self, addr: u32, v: u32) {
        self.write(Width::W32, addr, u64::from(v));
    }

    /// [`Memory::read`] with a single page lookup when the access lies
    /// within one page (the overwhelmingly common case); identical
    /// behaviour, including zero reads from unmapped pages. The decoded
    /// engine's hot path.
    #[inline]
    pub fn read_wide(&self, w: Width, addr: u32) -> u64 {
        let n = w.bytes() as usize;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n > PAGE_SIZE {
            return self.read(w, addr);
        }
        match self.page(addr) {
            Some(p) => {
                let mut v = 0u64;
                for i in 0..n {
                    v |= u64::from(p[off + i]) << (8 * i);
                }
                v
            }
            None => 0,
        }
    }

    /// [`Memory::write`] with a single page lookup when the access lies
    /// within one page; identical behaviour.
    #[inline]
    pub fn write_wide(&mut self, w: Width, addr: u32, v: u64) {
        let n = w.bytes() as usize;
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + n > PAGE_SIZE {
            return self.write(w, addr, v);
        }
        let page = self.page_mut(addr);
        for i in 0..n {
            page[off + i] = ((v >> (8 * i)) & 0xff) as u8;
        }
    }

    /// A canonical snapshot of every nonzero byte, sorted by address.
    /// Two memories with equal snapshots are observationally equal
    /// (unmapped bytes read as zero), whatever their page layout.
    /// Visits only mapped pages and skips all-zero 8-byte words.
    pub fn snapshot(&self) -> Vec<(u32, u8)> {
        let mut out = Vec::new();
        for (key, p) in self.iter_pages() {
            let base = key << PAGE_BITS;
            for (w, word) in p.chunks_exact(8).enumerate() {
                if u64::from_ne_bytes(word.try_into().expect("8-byte chunk")) == 0 {
                    continue;
                }
                for (i, &b) in word.iter().enumerate() {
                    if b != 0 {
                        out.push((base | (w * 8 + i) as u32, b));
                    }
                }
            }
        }
        out
    }

    /// Reads a NUL-terminated string.
    pub fn read_cstr(&self, addr: u32) -> String {
        let mut out = String::new();
        let mut a = addr;
        while out.len() < 4096 {
            let b = self.read_u8(a);
            if b == 0 {
                break;
            }
            out.push(b as char);
            a = a.wrapping_add(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut m = Memory::new();
        m.write(Width::W8, 10, 0xab);
        m.write(Width::W16, 20, 0xbeef);
        m.write(Width::W32, 30, 0xdead_beef);
        m.write(Width::W64, 40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read(Width::W8, 10), 0xab);
        assert_eq!(m.read(Width::W16, 20), 0xbeef);
        assert_eq!(m.read(Width::W32, 30), 0xdead_beef);
        assert_eq!(m.read(Width::W64, 40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn unmapped_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(Width::W32, 0x9999), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_BITS) - 2;
        m.write(Width::W32, addr, 0x11223344);
        assert_eq!(m.read(Width::W32, addr), 0x11223344);
    }

    #[test]
    fn high_addresses_round_trip() {
        // The top of the address space exercises the last root slot.
        let mut m = Memory::new();
        m.write(Width::W64, u32::MAX - 8, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read(Width::W64, u32::MAX - 8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.mapped_bytes(), PAGE_SIZE);
    }

    #[test]
    fn wide_accessors_match_byte_loop_everywhere() {
        // Including the cross-page boundary, where the wide path falls
        // back to the byte loop.
        let widths = [Width::W8, Width::W16, Width::W32, Width::W64];
        let boundary = 1u32 << PAGE_BITS;
        for w in widths {
            for addr in (boundary - 9)..(boundary + 9) {
                let v = 0x0123_4567_89ab_cdefu64;
                let mut a = Memory::new();
                let mut b = Memory::new();
                a.write(w, addr, v);
                b.write_wide(w, addr, v);
                assert_eq!(a.snapshot(), b.snapshot(), "{w:?} at {addr:#x}");
                assert_eq!(a.read(w, addr), b.read_wide(w, addr), "{w:?} at {addr:#x}");
            }
        }
        // Unmapped pages read zero through the wide path too.
        let m = Memory::new();
        assert_eq!(m.read_wide(Width::W64, 0x5000), 0);
    }

    #[test]
    fn clone_copies_mapped_contents_only() {
        let mut m = Memory::new();
        m.write32(0x10, 7);
        m.write32(0x8000_0000, 9);
        let c = m.clone();
        assert_eq!(c.snapshot(), m.snapshot());
        assert_eq!(c.mapped_bytes(), m.mapped_bytes());
    }

    #[test]
    fn recycled_memory_is_observationally_fresh() {
        let mut m = Memory::new();
        m.write(Width::W64, 0x10, 0xdead_beef_cafe_f00d);
        m.write(Width::W32, 0x5004, 0x1234_5678); // second page
        assert_eq!(m.mapped_bytes(), 2 * PAGE_SIZE);

        m.recycle();
        assert_eq!(m.mapped_bytes(), 0, "no pages mapped");
        assert!(m.snapshot().is_empty(), "no nonzero bytes");
        assert_eq!(m.read(Width::W64, 0x10), 0, "old contents unreadable");

        // A write after recycling reuses a banked page, and the reused
        // page carries no stale bytes from its previous life.
        m.write_u8(0x5000, 7);
        assert_eq!(m.mapped_bytes(), PAGE_SIZE);
        assert_eq!(m.snapshot(), vec![(0x5000, 7)]);
        // Behaviour matches a genuinely fresh memory, byte for byte.
        let mut fresh = Memory::new();
        fresh.write_u8(0x5000, 7);
        assert_eq!(m.snapshot(), fresh.snapshot());
    }

    /// A seeded random workload against a byte-map model: writes of
    /// every width (zeros included, page boundaries crossed) into three
    /// leaves — data near 0, the stack just below `0x0800_0000`, and
    /// the top of the address space, where multi-byte writes wrap.
    /// After every batch the snapshot, footprint and clone must agree
    /// with the model, and a recycled memory must behave like a new one.
    #[test]
    fn matches_a_byte_map_model() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let page = PAGE_SIZE as u32;
        let stack_top = 0x0800_0000u32;
        let mut m = Memory::new();
        // What the memory must equal: every byte written since the last
        // recycle, and a memory built fresh at that recycle that has
        // received the same writes since.
        let mut model: BTreeMap<u32, u8> = BTreeMap::new();
        let mut fresh = Memory::new();
        for round in 0..64 {
            for _ in 0..40 {
                let r = next();
                let addr = match r % 4 {
                    0 => (r >> 8) as u32 % (3 * page),
                    1 => stack_top - 1 - (r >> 8) as u32 % (3 * page),
                    2 => u32::MAX - (r >> 8) as u32 % 8,
                    // Straddle a page boundary in the first two leaves.
                    _ => {
                        let edge = if r & 0x100 == 0 {
                            page
                        } else {
                            stack_top - page
                        };
                        edge - 1 - (r >> 9) as u32 % 8
                    }
                };
                let v = if next() % 4 == 0 { 0 } else { next() };
                let w = [Width::W8, Width::W16, Width::W32, Width::W64][(next() % 4) as usize];
                if w == Width::W8 && next() % 2 == 0 {
                    m.write_u8(addr, v as u8);
                    fresh.write_u8(addr, v as u8);
                } else {
                    m.write_wide(w, addr, v);
                    fresh.write_wide(w, addr, v);
                }
                for i in 0..w.bytes() {
                    model.insert(addr.wrapping_add(i as u32), (v >> (8 * i)) as u8);
                }
            }
            let nonzero: Vec<(u32, u8)> = model
                .iter()
                .filter(|&(_, &b)| b != 0)
                .map(|(&a, &b)| (a, b))
                .collect();
            let pages: BTreeSet<u32> = model.keys().map(|&a| a >> PAGE_BITS).collect();
            assert_eq!(m.snapshot(), nonzero, "round {round}: snapshot");
            assert_eq!(m.mapped_bytes(), PAGE_SIZE * pages.len(), "round {round}");
            for (&a, &b) in &model {
                assert_eq!(m.read_u8(a), b, "round {round}: byte at {a:#x}");
            }
            let c = m.clone();
            assert_eq!(c.snapshot(), nonzero, "round {round}: clone");
            assert_eq!(c.mapped_bytes(), m.mapped_bytes(), "round {round}");
            assert_eq!(fresh.snapshot(), nonzero, "round {round}: fresh");
            assert_eq!(fresh.mapped_bytes(), m.mapped_bytes(), "round {round}");
            if round % 8 == 7 {
                m.recycle();
                assert_eq!(m.mapped_bytes(), 0, "round {round}: recycled");
                assert!(m.snapshot().is_empty(), "round {round}: recycled");
                for &a in model.keys() {
                    assert_eq!(m.read_u8(a), 0, "round {round}: stale byte at {a:#x}");
                }
                model.clear();
                fresh = Memory::new();
            }
        }
    }

    #[test]
    fn cstr_reads() {
        let mut m = Memory::new();
        for (i, b) in b"hello\0".iter().enumerate() {
            m.write_u8(100 + i as u32, *b);
        }
        assert_eq!(m.read_cstr(100), "hello");
    }
}
