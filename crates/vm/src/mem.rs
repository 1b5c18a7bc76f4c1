//! The VM's word-addressed memory.
//!
//! Memory is a set of regions (globals, heap allocations, per-thread
//! stacks) over a sparse 64-bit address space. Globals are laid out
//! contiguously — deliberately, because attacks like Apache-25520
//! (paper Figure 7) depend on a buffer overflow corrupting the
//! *adjacent* variable (the log file descriptor next to `buf->outbuf`).
//! Heap allocations are never reused, so use-after-free and double-free
//! are always detectable.

use owl_ir::{GlobalId, Module};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Base address of the global region (everything below is the NULL
/// page).
pub const GLOBAL_BASE: u64 = 0x1000;
/// Base address of heap allocations.
pub const HEAP_BASE: u64 = 0x1000_0000;
/// Base address of per-thread stacks.
pub const STACK_BASE: u64 = 0x2000_0000;
/// Size of one thread stack, in words.
pub const STACK_SIZE: u64 = 0x1_0000;
/// Function-pointer encoding base: `FuncAddr(f)` evaluates to
/// `FUNCPTR_BASE + f`.
pub const FUNCPTR_BASE: u64 = 0x4000_0000;

/// What kind of storage a region is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionKind {
    /// A global variable.
    Global(GlobalId),
    /// A live heap allocation.
    Heap,
    /// A freed heap allocation (kept for use-after-free detection).
    FreedHeap,
    /// A thread-stack allocation (`Alloca`).
    Stack {
        /// Owning thread (raw id).
        tid: u32,
    },
}

/// One contiguous allocation.
///
/// The payload is behind an [`Arc`]: cloning a region (or the whole
/// [`Memory`], as [`crate::Vm::snapshot`] does) shares the words, and
/// the first write through either copy un-shares just that region
/// (copy-on-write via [`Arc::make_mut`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Region {
    /// First word address.
    pub base: u64,
    /// Length in words.
    pub size: u64,
    /// Storage kind.
    pub kind: RegionKind,
    data: Arc<Vec<i64>>,
}

impl Region {
    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }
}

/// Why a memory access failed or misbehaved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemError {
    /// Access inside the NULL page.
    Null {
        /// Faulting address.
        addr: u64,
    },
    /// Access outside any region.
    Wild {
        /// Faulting address.
        addr: u64,
    },
    /// Access inside a freed heap region.
    UseAfterFree {
        /// Faulting address.
        addr: u64,
        /// Base of the freed allocation.
        region_base: u64,
    },
    /// `Free` of an already-freed allocation.
    DoubleFree {
        /// The freed base address.
        addr: u64,
    },
    /// `Free` of an address that is not a live heap base.
    InvalidFree {
        /// The bogus address.
        addr: u64,
    },
}

/// VM memory: regions plus allocation cursors.
#[derive(Clone, Debug)]
pub struct Memory {
    /// base -> region, ordered for containment lookup.
    regions: BTreeMap<u64, Region>,
    heap_cursor: u64,
    global_cursor: u64,
    /// Per-thread stack cursors.
    stack_cursors: BTreeMap<u32, u64>,
}

impl Memory {
    /// Creates memory with all of `module`'s globals laid out
    /// contiguously from [`GLOBAL_BASE`].
    pub fn new(module: &Module) -> Self {
        let mut mem = Memory {
            regions: BTreeMap::new(),
            heap_cursor: HEAP_BASE,
            global_cursor: GLOBAL_BASE,
            stack_cursors: BTreeMap::new(),
        };
        for (gi, g) in module.globals.iter().enumerate() {
            let base = mem.global_cursor;
            let mut data = vec![0i64; g.size as usize];
            for (i, v) in g.init.iter().enumerate() {
                data[i] = *v;
            }
            mem.regions.insert(
                base,
                Region {
                    base,
                    size: g.size as u64,
                    kind: RegionKind::Global(GlobalId::from_index(gi)),
                    data: Arc::new(data),
                },
            );
            mem.global_cursor += g.size as u64;
        }
        mem
    }

    /// Address of global `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` was not part of the module this memory was built
    /// from.
    pub fn global_addr(&self, g: GlobalId) -> u64 {
        self.regions
            .values()
            .find(|r| r.kind == RegionKind::Global(g))
            .map(|r| r.base)
            .expect("unknown global")
    }

    fn region_containing(&self, addr: u64) -> Option<&Region> {
        self.regions
            .range(..=addr)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(addr))
    }

    fn region_containing_mut(&mut self, addr: u64) -> Option<&mut Region> {
        self.regions
            .range_mut(..=addr)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(addr))
    }

    /// The region containing `addr`, if any (public for verifier hints).
    pub fn region_of(&self, addr: u64) -> Option<&Region> {
        self.region_containing(addr)
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::Null`] below [`GLOBAL_BASE`], [`MemError::Wild`]
    /// outside all regions, [`MemError::UseAfterFree`] inside a freed
    /// region (the stale value is still returned *inside* the error
    /// case by [`Memory::read_raw`] for attack modeling).
    pub fn read(&self, addr: u64) -> Result<i64, MemError> {
        if addr < GLOBAL_BASE {
            return Err(MemError::Null { addr });
        }
        match self.region_containing(addr) {
            Some(r) if r.kind == RegionKind::FreedHeap => Err(MemError::UseAfterFree {
                addr,
                region_base: r.base,
            }),
            Some(r) => Ok(r.data[(addr - r.base) as usize]),
            None => Err(MemError::Wild { addr }),
        }
    }

    /// Reads the word at `addr` even from freed regions (stale data).
    /// Returns `None` for NULL/wild addresses.
    pub fn read_raw(&self, addr: u64) -> Option<i64> {
        if addr < GLOBAL_BASE {
            return None;
        }
        self.region_containing(addr)
            .map(|r| r.data[(addr - r.base) as usize])
    }

    /// Writes the word at `addr`.
    ///
    /// # Errors
    ///
    /// Same classification as [`Memory::read`]. Writes into freed
    /// regions *do* land (stale memory corruption) but still report
    /// [`MemError::UseAfterFree`].
    pub fn write(&mut self, addr: u64, val: i64) -> Result<(), MemError> {
        if addr < GLOBAL_BASE {
            return Err(MemError::Null { addr });
        }
        match self.region_containing_mut(addr) {
            Some(r) => {
                let base = r.base;
                let freed = r.kind == RegionKind::FreedHeap;
                // Un-share the region on first write after a snapshot.
                Arc::make_mut(&mut r.data)[(addr - base) as usize] = val;
                if freed {
                    Err(MemError::UseAfterFree {
                        addr,
                        region_base: base,
                    })
                } else {
                    Ok(())
                }
            }
            None => Err(MemError::Wild { addr }),
        }
    }

    /// Allocates `size` words on the heap (never reuses addresses).
    pub fn malloc(&mut self, size: u64) -> u64 {
        let size = size.max(1);
        let base = self.heap_cursor;
        self.heap_cursor += size + 1; // one-word red zone
        self.regions.insert(
            base,
            Region {
                base,
                size,
                kind: RegionKind::Heap,
                data: Arc::new(vec![0; size as usize]),
            },
        );
        base
    }

    /// Frees the heap allocation at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::DoubleFree`] if already freed, [`MemError::InvalidFree`]
    /// if `addr` is not a heap allocation base.
    pub fn free(&mut self, addr: u64) -> Result<(), MemError> {
        match self.regions.get_mut(&addr) {
            Some(r) if r.kind == RegionKind::Heap => {
                r.kind = RegionKind::FreedHeap;
                Ok(())
            }
            Some(r) if r.kind == RegionKind::FreedHeap => Err(MemError::DoubleFree { addr }),
            _ => Err(MemError::InvalidFree { addr }),
        }
    }

    /// Allocates `size` words on thread `tid`'s stack.
    pub fn alloca(&mut self, tid: u32, size: u64) -> u64 {
        let cursor = self
            .stack_cursors
            .entry(tid)
            .or_insert(STACK_BASE + u64::from(tid) * STACK_SIZE);
        let base = *cursor;
        *cursor += size.max(1);
        self.regions.insert(
            base,
            Region {
                base,
                size: size.max(1),
                kind: RegionKind::Stack { tid },
                data: Arc::new(vec![0; size.max(1) as usize]),
            },
        );
        base
    }

    /// Whether `addr` is shared memory (globals or heap, live or freed)
    /// — the address classes the race detector shadows. Thread stacks
    /// are excluded, mirroring TSan's escape filtering.
    pub fn is_shared(&self, addr: u64) -> bool {
        matches!(
            self.region_containing(addr).map(|r| r.kind),
            Some(RegionKind::Global(_)) | Some(RegionKind::Heap) | Some(RegionKind::FreedHeap)
        )
    }

    /// Approximate heap bytes a fresh clone of this memory uniquely
    /// owns: the region index (map entry, bounds, one shared payload
    /// handle per region) plus stack cursors. Payload words are
    /// excluded — immediately after a clone they are CoW-shared with
    /// the original and cost nothing until one side writes.
    pub fn approx_index_bytes(&self) -> u64 {
        (self.regions.len() as u64) * 64 + (self.stack_cursors.len() as u64) * 16
    }

    /// Name of the global containing `addr`, for reports.
    pub fn global_name<'m>(&self, module: &'m Module, addr: u64) -> Option<&'m str> {
        match self.region_containing(addr)?.kind {
            RegionKind::Global(g) => Some(module.global(g).name.as_str()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owl_ir::{ModuleBuilder, Type};

    fn module_with_globals() -> Module {
        let mut mb = ModuleBuilder::new("t");
        mb.global_init("a", 2, vec![7, 8], Type::I64);
        mb.global("b", 1, Type::I64);
        mb.finish()
    }

    #[test]
    fn globals_are_contiguous_and_initialized() {
        let m = module_with_globals();
        let mem = Memory::new(&m);
        let a = mem.global_addr(GlobalId(0));
        let b = mem.global_addr(GlobalId(1));
        assert_eq!(a, GLOBAL_BASE);
        assert_eq!(b, GLOBAL_BASE + 2);
        assert_eq!(mem.read(a).unwrap(), 7);
        assert_eq!(mem.read(a + 1).unwrap(), 8);
        assert_eq!(mem.read(b).unwrap(), 0);
    }

    #[test]
    fn overflow_from_one_global_lands_in_next() {
        // The Apache-25520 mechanism: writing past `a` corrupts `b`.
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let a = mem.global_addr(GlobalId(0));
        mem.write(a + 2, 99).unwrap();
        let b = mem.global_addr(GlobalId(1));
        assert_eq!(mem.read(b).unwrap(), 99);
    }

    #[test]
    fn null_and_wild_accesses_fail() {
        let m = module_with_globals();
        let mem = Memory::new(&m);
        assert_eq!(mem.read(0), Err(MemError::Null { addr: 0 }));
        assert_eq!(
            mem.read(0xdead_beef00),
            Err(MemError::Wild {
                addr: 0xdead_beef00
            })
        );
    }

    #[test]
    fn heap_lifecycle_and_uaf() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let p = mem.malloc(4);
        mem.write(p + 1, 42).unwrap();
        assert_eq!(mem.read(p + 1).unwrap(), 42);
        mem.free(p).unwrap();
        assert_eq!(
            mem.read(p + 1),
            Err(MemError::UseAfterFree {
                addr: p + 1,
                region_base: p
            })
        );
        // Stale data still observable for attack modeling.
        assert_eq!(mem.read_raw(p + 1), Some(42));
        assert_eq!(mem.free(p), Err(MemError::DoubleFree { addr: p }));
        assert_eq!(mem.free(p + 1), Err(MemError::InvalidFree { addr: p + 1 }));
    }

    #[test]
    fn malloc_never_reuses_addresses() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let p1 = mem.malloc(2);
        mem.free(p1).unwrap();
        let p2 = mem.malloc(2);
        assert_ne!(p1, p2);
    }

    #[test]
    fn stack_regions_are_not_shared() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let s = mem.alloca(3, 8);
        assert!(!mem.is_shared(s));
        assert!(mem.is_shared(GLOBAL_BASE));
        let h = mem.malloc(1);
        assert!(mem.is_shared(h));
        mem.free(h).unwrap();
        assert!(mem.is_shared(h), "freed heap stays shadowed");
    }

    #[test]
    fn distinct_threads_get_distinct_stacks() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let s0 = mem.alloca(0, 4);
        let s1 = mem.alloca(1, 4);
        assert_ne!(s0, s1);
        assert_eq!(s1, STACK_BASE + STACK_SIZE);
    }

    #[test]
    fn clone_shares_payloads_until_first_write() {
        let m = module_with_globals();
        let mut mem = Memory::new(&m);
        let h = mem.malloc(4);
        let snap = mem.clone();
        let a = mem.global_addr(GlobalId(0));
        assert!(Arc::ptr_eq(&mem.regions[&a].data, &snap.regions[&a].data));
        // Reads keep sharing; a write un-shares only the touched region.
        let _ = mem.read(h).unwrap();
        assert!(Arc::ptr_eq(&mem.regions[&h].data, &snap.regions[&h].data));
        mem.write(h + 1, 5).unwrap();
        assert!(!Arc::ptr_eq(&mem.regions[&h].data, &snap.regions[&h].data));
        assert!(Arc::ptr_eq(&mem.regions[&a].data, &snap.regions[&a].data));
        // The snapshot still sees the pre-write value.
        assert_eq!(snap.read(h + 1).unwrap(), 0);
        assert_eq!(mem.read(h + 1).unwrap(), 5);
    }

    #[test]
    fn global_names_resolve() {
        let m = module_with_globals();
        let mem = Memory::new(&m);
        assert_eq!(mem.global_name(&m, GLOBAL_BASE), Some("a"));
        assert_eq!(mem.global_name(&m, GLOBAL_BASE + 2), Some("b"));
        assert_eq!(mem.global_name(&m, HEAP_BASE), None);
    }
}
