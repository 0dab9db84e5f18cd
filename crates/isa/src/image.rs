//! Static linking and the loaded program image.
//!
//! The [`Linker`] assigns base addresses to an executable, its shared
//! libraries, and an optional VDSO module, resolves imported symbols through
//! each module's GOT, applies relocations, and produces an [`Image`] — the
//! fully-linked, byte-exact memory picture a process starts from.
//!
//! Symbol resolution mirrors the paper's §4.1 discussion of dynamic linking:
//!
//! * inter-module calls go through PLT stubs (indirect jumps via the GOT);
//! * *global symbol interposition* is decided by the importing module's
//!   `DT_NEEDED` order (the first library in that order providing the symbol
//!   wins), with the executable's own exports taking precedence over all;
//! * symbols exported by the **VDSO** take precedence over library exports
//!   (e.g. `gettimeofday`), modelling the Linux VDSO fast-path.

use crate::insn::{Insn, INSN_SIZE};
use crate::module::{Module, Reloc};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// Default base address of the executable module.
pub const EXEC_BASE: u64 = 0x0040_0000;
/// Base address of the first shared library.
pub const LIB_BASE: u64 = 0x1000_0000;
/// Address stride between consecutive libraries.
pub const LIB_STRIDE: u64 = 0x0100_0000;
/// Base address of the VDSO module.
pub const VDSO_BASE: u64 = 0x7000_0000;
/// Exclusive upper bound on linked addresses (keeps them `i32`-embeddable).
pub const VA_LIMIT: u64 = 0x7fff_0000;

/// The role a module plays in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleKind {
    /// The main executable.
    Executable,
    /// A dynamically linked shared library.
    Library,
    /// The virtual dynamic shared object (syscall acceleration).
    Vdso,
}

/// Errors produced while linking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// No executable module was provided.
    NoExecutable,
    /// Two modules share the same name.
    DuplicateModule(String),
    /// A module exceeds the per-module address budget.
    ModuleTooLarge { module: String, size: u64, limit: u64 },
    /// An imported symbol could not be resolved in any module.
    UnresolvedSymbol { module: String, sym: String },
    /// The entry symbol is not exported by the executable.
    NoEntry { sym: String },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::NoExecutable => write!(f, "no executable module provided"),
            LinkError::DuplicateModule(m) => write!(f, "duplicate module name `{m}`"),
            LinkError::ModuleTooLarge { module, size, limit } => {
                write!(f, "module `{module}` is {size} bytes, exceeding the {limit}-byte budget")
            }
            LinkError::UnresolvedSymbol { module, sym } => {
                write!(f, "module `{module}` imports unresolved symbol `{sym}`")
            }
            LinkError::NoEntry { sym } => {
                write!(f, "executable does not export entry symbol `{sym}`")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// A module placed at its final base address with all relocations applied.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadedModule {
    /// Module name.
    pub name: String,
    /// Role in the image.
    pub kind: ModuleKind,
    /// Base virtual address.
    pub base: u64,
    /// Raw bytes of the loaded module (code, PLT, GOT, data).
    pub bytes: Vec<u8>,
    /// End (exclusive) of the executable portion (code + PLT).
    pub exec_end: u64,
    /// Start of the PLT within the executable portion.
    pub plt_start: u64,
    /// Start of the GOT.
    pub got_start: u64,
    /// Start of the data section.
    pub data_start: u64,
    /// Resolved exports (name, absolute address).
    pub exports: Vec<(String, u64)>,
    /// `DT_NEEDED` dependency list.
    pub needed: Vec<String>,
}

impl LoadedModule {
    /// End (exclusive) of the module's address range.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// Whether `va` falls inside this module.
    pub fn contains(&self, va: u64) -> bool {
        va >= self.base && va < self.end()
    }

    /// Whether `va` falls inside the executable (code + PLT) portion.
    pub fn contains_code(&self, va: u64) -> bool {
        va >= self.base && va < self.exec_end
    }

    /// Whether `va` is inside the PLT.
    pub fn in_plt(&self, va: u64) -> bool {
        va >= self.plt_start && va < self.exec_end
    }

    /// Resolved address of an exported symbol.
    pub fn export(&self, name: &str) -> Option<u64> {
        self.exports.iter().find(|(n, _)| n == name).map(|&(_, a)| a)
    }

    /// The exported symbol (if any) whose address is exactly `va`.
    pub fn symbol_at(&self, va: u64) -> Option<&str> {
        self.exports.iter().find(|&&(_, a)| a == va).map(|(n, _)| n.as_str())
    }
}

/// A fully linked program image.
///
/// The image is immutable: processes copy its segments into their address
/// space at startup. All code introspection used by the static analyser and
/// the slow-path decoder (`insn_at`, `straight_line_at`, `module_containing`)
/// goes through the *encoded bytes*, so analysis operates on the real
/// binary just as Dyninst does in the paper. The bytes are decoded once,
/// when the image is linked or loaded, into a code table that every clone
/// of the image shares.
#[derive(Debug, Clone)]
pub struct Image {
    modules: Vec<LoadedModule>,
    entry: u64,
    code: Arc<CodeTable>,
}

/// One predecoded instruction slot.
#[derive(Debug, Clone, Copy)]
struct CodeSlot {
    /// The instruction, or `None` when the slot's bytes are not a valid
    /// encoding.
    insn: Option<Insn>,
    /// Length of the straight-line run starting here: the consecutive
    /// decodable non-terminator instructions (no CoFI, no `halt`) from this
    /// slot on, within the module. Zero at a terminator or an undecodable
    /// slot.
    run: u32,
}

/// One module's share of the code table.
#[derive(Debug, Clone, Copy)]
struct CodeSpan {
    base: u64,
    /// End of the module's address range.
    end: u64,
    /// End of its executable portion.
    exec_end: u64,
    /// Index of its first slot.
    first: usize,
}

/// The image's executable portions, decoded once: one slot per
/// instruction-aligned address of every module's code + PLT, then one
/// empty sentinel slot, so a run's stop slot is always in the table.
struct CodeTable {
    /// The modules, by ascending base.
    spans: Vec<CodeSpan>,
    slots: Vec<CodeSlot>,
    /// Per [`GRANULE_SHIFT`]-aligned granule of the address space up to
    /// the highest module end (at most [`VA_LIMIT`]): how many modules
    /// start strictly below the granule. A lookup starts its module search
    /// there instead of searching all modules.
    granule_below: Vec<u32>,
}

/// Granule size of the code table's module index (16 MiB, the linker's
/// library stride: a granule rarely holds more than one module start).
const GRANULE_SHIFT: u32 = 24;

impl fmt::Debug for CodeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeTable")
            .field("modules", &self.spans.len())
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl CodeTable {
    fn build(modules: &[LoadedModule]) -> CodeTable {
        let mut spans = Vec::with_capacity(modules.len());
        let mut slots = Vec::new();
        for m in modules {
            let first = slots.len();
            spans.push(CodeSpan { base: m.base, end: m.end(), exec_end: m.exec_end, first });
            let mut va = m.base;
            while va < m.exec_end.min(m.end()) {
                let off = (va - m.base) as usize;
                let insn = m
                    .bytes
                    .get(off..off + INSN_SIZE as usize)
                    .and_then(|b| Insn::decode(b.try_into().ok()?, va).ok());
                slots.push(CodeSlot { insn, run: 0 });
                va += INSN_SIZE;
            }
            slots.push(CodeSlot { insn: None, run: 0 });
            // Runs, back to front: a non-terminator extends the run after it.
            let mut next = 0u32;
            for s in slots[first..].iter_mut().rev() {
                next = match s.insn {
                    Some(i) if !i.is_terminator() => next + 1,
                    _ => 0,
                };
                s.run = next;
            }
        }
        // The linker never overlaps modules, so the module containing an
        // address is the last one starting at or below it.
        spans.sort_unstable_by_key(|s| s.base);
        let top = spans.iter().map(|s| s.end).max().unwrap_or(0).min(VA_LIMIT);
        let granule_below = (0..=top >> GRANULE_SHIFT)
            .map(|g| {
                let below = spans.partition_point(|s| s.base < g << GRANULE_SHIFT);
                u32::try_from(below).expect("module count fits in u32")
            })
            .collect();
        CodeTable { spans, slots, granule_below }
    }

    /// Index of the slot holding `va`, if `va` is an instruction-aligned
    /// address inside some module's executable portion.
    #[inline]
    fn index(&self, va: u64) -> Option<usize> {
        // Modules starting below va's granule, plus those starting inside
        // it at or below va.
        let mut below = match self.granule_below.get((va >> GRANULE_SHIFT) as usize) {
            Some(&n) => n as usize,
            None => self.spans.partition_point(|s| s.base <= va),
        };
        while self.spans.get(below).is_some_and(|s| s.base <= va) {
            below += 1;
        }
        let s = self.spans.get(below.checked_sub(1)?)?;
        if va >= s.end || va >= s.exec_end || !(va - s.base).is_multiple_of(INSN_SIZE) {
            return None;
        }
        Some(s.first + ((va - s.base) / INSN_SIZE) as usize)
    }
}

/// The straight-line run at an address: see [`Image::straight_line_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StraightLine {
    /// Decodable non-terminator instructions from the start address on.
    pub run: u32,
    /// The instruction right after them, at `start + run * INSN_SIZE`: a
    /// CoFI or `halt`, or `None` when that address holds no decodable
    /// instruction of the same module's executable portion.
    pub stop: Option<Insn>,
}

impl Serialize for Image {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("modules".to_string(), self.modules.to_value()),
            ("entry".to_string(), self.entry.to_value()),
        ])
    }
}

impl Deserialize for Image {
    fn from_value(v: &Value) -> Result<Image, DeError> {
        let o = serde::expect_object(v, "Image")?;
        Ok(Image::new(serde::field(o, "modules")?, serde::field(o, "entry")?))
    }
}

/// A contiguous initial-memory segment of the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Segment start address.
    pub va: u64,
    /// Segment contents.
    pub bytes: &'a [u8],
    /// Whether the segment is writable (GOT + data) or read-only (code).
    pub writable: bool,
}

impl Image {
    /// Assembles an image from placed modules, decoding the code table.
    fn new(modules: Vec<LoadedModule>, entry: u64) -> Image {
        let code = Arc::new(CodeTable::build(&modules));
        Image { modules, entry, code }
    }

    /// The program entry point.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// All loaded modules, executable first, then libraries, then the VDSO.
    pub fn modules(&self) -> &[LoadedModule] {
        &self.modules
    }

    /// The executable module.
    pub fn executable(&self) -> &LoadedModule {
        self.modules
            .iter()
            .find(|m| m.kind == ModuleKind::Executable)
            .expect("image always contains an executable")
    }

    /// Looks up a module by name.
    pub fn module_named(&self, name: &str) -> Option<&LoadedModule> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// The module containing `va`, if any.
    pub fn module_containing(&self, va: u64) -> Option<&LoadedModule> {
        self.modules.iter().find(|m| m.contains(va))
    }

    /// Whether `va` lies in some module's executable portion.
    pub fn is_code(&self, va: u64) -> bool {
        self.modules.iter().any(|m| m.contains_code(va))
    }

    /// Reads raw image bytes at `va`, if the whole range is mapped in one
    /// module.
    pub fn read_bytes(&self, va: u64, len: usize) -> Option<&[u8]> {
        let m = self.module_containing(va)?;
        let off = (va - m.base) as usize;
        m.bytes.get(off..off + len)
    }

    /// Decodes the instruction at `va` from the image bytes.
    ///
    /// Returns `None` if `va` is unmapped, not in an executable portion, or
    /// not instruction-aligned.
    #[inline]
    pub fn insn_at(&self, va: u64) -> Option<Insn> {
        self.code.slots[self.code.index(va)?].insn
    }

    /// The straight-line run starting at `va`: how many instructions from
    /// `va` on can be stepped without meeting a CoFI, a `halt` or an
    /// undecodable slot, and the instruction that ends the run. `None`
    /// when `va` itself holds no decodable instruction (as
    /// [`Image::insn_at`]). A run never leaves its module's executable
    /// portion; when `va` is a terminator the run is empty and `stop` is
    /// that instruction.
    #[inline]
    pub fn straight_line_at(&self, va: u64) -> Option<StraightLine> {
        let i = self.code.index(va)?;
        let s = self.code.slots[i];
        s.insn?;
        Some(StraightLine { run: s.run, stop: self.code.slots[i + s.run as usize].insn })
    }

    /// Whether `va` is a decodable instruction address: mapped, inside an
    /// executable portion, instruction-aligned, and holding a valid
    /// encoding. The static verifier uses this to reject CFG artifacts whose
    /// edges point outside real code.
    pub fn is_insn_addr(&self, va: u64) -> bool {
        self.insn_at(va).is_some()
    }

    /// Resolves a symbol using the global resolution order (executable,
    /// VDSO, then libraries in load order).
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.modules.iter().find_map(|m| m.export(name))
    }

    /// Initial memory segments (per module: a read-only code segment and a
    /// writable GOT+data segment).
    pub fn segments(&self) -> Vec<Segment<'_>> {
        let mut out = Vec::with_capacity(self.modules.len() * 2);
        for m in &self.modules {
            let code_len = (m.exec_end - m.base) as usize;
            if code_len > 0 {
                out.push(Segment { va: m.base, bytes: &m.bytes[..code_len], writable: false });
            }
            if m.bytes.len() > code_len {
                out.push(Segment { va: m.exec_end, bytes: &m.bytes[code_len..], writable: true });
            }
        }
        out
    }

    /// Total number of instruction slots across all executable portions.
    pub fn total_insns(&self) -> u64 {
        self.modules.iter().map(|m| (m.exec_end - m.base) / INSN_SIZE).sum()
    }
}

/// Builder that links modules into an [`Image`].
///
/// # Examples
///
/// ```
/// use fg_isa::asm::Asm;
/// use fg_isa::image::Linker;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lib = Asm::new("libc");
/// lib.export("f");
/// lib.label("f");
/// lib.ret();
///
/// let mut exe = Asm::new("app");
/// exe.import("f").needs("libc");
/// exe.export("main");
/// exe.label("main");
/// exe.call("f");
/// exe.halt();
///
/// let image = Linker::new(exe.finish()?).library(lib.finish()?).link()?;
/// assert!(image.symbol("f").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Linker {
    exec: Module,
    libs: Vec<Module>,
    vdso: Option<Module>,
    entry_sym: String,
}

impl Linker {
    /// Starts a link with the given executable module.
    pub fn new(executable: Module) -> Linker {
        Linker { exec: executable, libs: Vec::new(), vdso: None, entry_sym: "main".into() }
    }

    /// Adds a shared library (load order = `DT_NEEDED` fallback order).
    pub fn library(mut self, lib: Module) -> Linker {
        self.libs.push(lib);
        self
    }

    /// Installs the VDSO module (its exports take precedence over library
    /// exports).
    pub fn vdso(mut self, vdso: Module) -> Linker {
        self.vdso = Some(vdso);
        self
    }

    /// Overrides the entry symbol (default `"main"`).
    pub fn entry_symbol(mut self, sym: impl Into<String>) -> Linker {
        self.entry_sym = sym.into();
        self
    }

    /// Performs the link.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] for duplicate module names, oversized modules,
    /// unresolved imports, or a missing entry symbol.
    pub fn link(self) -> Result<Image, LinkError> {
        // ---- base assignment -------------------------------------------
        struct Placed {
            module: Module,
            kind: ModuleKind,
            base: u64,
        }
        let mut placed: Vec<Placed> = Vec::new();
        placed.push(Placed { module: self.exec, kind: ModuleKind::Executable, base: EXEC_BASE });
        for (i, lib) in self.libs.into_iter().enumerate() {
            placed.push(Placed {
                module: lib,
                kind: ModuleKind::Library,
                base: LIB_BASE + i as u64 * LIB_STRIDE,
            });
        }
        if let Some(v) = self.vdso {
            placed.push(Placed { module: v, kind: ModuleKind::Vdso, base: VDSO_BASE });
        }

        for (i, p) in placed.iter().enumerate() {
            let limit = match p.kind {
                ModuleKind::Executable => LIB_BASE - EXEC_BASE,
                ModuleKind::Library => LIB_STRIDE,
                ModuleKind::Vdso => VA_LIMIT - VDSO_BASE,
            };
            if p.module.size() > limit {
                return Err(LinkError::ModuleTooLarge {
                    module: p.module.name.clone(),
                    size: p.module.size(),
                    limit,
                });
            }
            for q in &placed[..i] {
                if q.module.name == p.module.name {
                    return Err(LinkError::DuplicateModule(p.module.name.clone()));
                }
            }
        }

        // ---- export tables ----------------------------------------------
        // (module name, kind, base, exports resolved to absolute addresses)
        type ExportEntry = (String, ModuleKind, Vec<(String, u64)>);
        let export_table: Vec<ExportEntry> = placed
            .iter()
            .map(|p| {
                let exports =
                    p.module.exports.iter().map(|e| (e.name.clone(), p.base + e.offset)).collect();
                (p.module.name.clone(), p.kind, exports)
            })
            .collect();

        let find_in = |module_name: &str, sym: &str| -> Option<u64> {
            export_table
                .iter()
                .find(|(n, _, _)| n == module_name)
                .and_then(|(_, _, ex)| ex.iter().find(|(s, _)| s == sym).map(|&(_, a)| a))
        };

        // Resolution for `importer` requesting `sym`:
        //   1. the executable's exports (copy-relocation style precedence);
        //   2. the VDSO (takes precedence over libraries, §4.1);
        //   3. the importer's DT_NEEDED list, in order (interposition);
        //   4. remaining libraries in load order.
        let resolve = |importer: &Module, sym: &str| -> Option<u64> {
            for (name, kind, exports) in &export_table {
                if *kind == ModuleKind::Executable || *kind == ModuleKind::Vdso {
                    if let Some(&(_, a)) = exports.iter().find(|(s, _)| s == sym) {
                        let _ = name;
                        return Some(a);
                    }
                }
            }
            for dep in &importer.needed {
                if let Some(a) = find_in(dep, sym) {
                    return Some(a);
                }
            }
            for (name, kind, exports) in &export_table {
                if *kind == ModuleKind::Library && !importer.needed.iter().any(|d| d == name) {
                    if let Some(&(_, a)) = exports.iter().find(|(s, _)| s == sym) {
                        return Some(a);
                    }
                }
            }
            None
        };

        // ---- relocation + byte image ------------------------------------
        let mut loaded: Vec<LoadedModule> = Vec::with_capacity(placed.len());
        for p in &placed {
            let m = &p.module;
            let base = p.base;
            let got_start = base + m.got_offset();
            let data_start = base + m.data_offset();

            // Rebase direct branch targets and apply code relocations.
            let mut code: Vec<Insn> = m
                .code
                .iter()
                .map(|i| match *i {
                    Insn::Jmp { target } => Insn::Jmp { target: base + target },
                    Insn::Call { target } => Insn::Call { target: base + target },
                    Insn::Jcc { cc, target } => Insn::Jcc { cc, target: base + target },
                    other => other,
                })
                .collect();

            let mut data = m.data.clone();
            let mut got = vec![0u8; m.imports.len() * 8];

            for r in &m.relocs {
                match r {
                    Reloc::Abs { code_index, target_offset, .. } => {
                        let addr = base + target_offset;
                        patch_imm(&mut code[*code_index], addr);
                    }
                    Reloc::GotAddr { code_index, got_index, .. } => {
                        let addr = got_start + *got_index as u64 * 8;
                        patch_imm(&mut code[*code_index], addr);
                    }
                    Reloc::DataAbs { data_offset, target_offset, .. } => {
                        let addr = base + target_offset;
                        data[*data_offset..*data_offset + 8].copy_from_slice(&addr.to_le_bytes());
                    }
                }
            }

            for (slot, import) in m.imports.iter().enumerate() {
                let addr = resolve(m, import).ok_or_else(|| LinkError::UnresolvedSymbol {
                    module: m.name.clone(),
                    sym: import.clone(),
                })?;
                got[slot * 8..slot * 8 + 8].copy_from_slice(&addr.to_le_bytes());
            }

            // Encode the final code bytes.
            let mut bytes = Vec::with_capacity(m.size() as usize);
            for (i, insn) in code.iter().enumerate() {
                let pc = base + i as u64 * INSN_SIZE;
                bytes.extend_from_slice(&insn.encode(pc));
            }
            bytes.extend_from_slice(&got);
            bytes.extend_from_slice(&data);

            let exports =
                m.exports.iter().map(|e| (e.name.clone(), base + e.offset)).collect::<Vec<_>>();

            loaded.push(LoadedModule {
                name: m.name.clone(),
                kind: p.kind,
                base,
                exec_end: got_start,
                plt_start: base + m.plt_offset(),
                got_start,
                data_start,
                bytes,
                exports,
                needed: m.needed.clone(),
            });
        }

        let entry = loaded[0]
            .export(&self.entry_sym)
            .ok_or(LinkError::NoEntry { sym: self.entry_sym.clone() })?;

        Ok(Image::new(loaded, entry))
    }
}

/// Patches the 32-bit immediate of a `MovImm` with an absolute address.
///
/// # Panics
///
/// Panics if the relocation target is not a `MovImm` (assembler bug) or the
/// address does not fit in an `i32` (the linker layout keeps all addresses
/// below [`VA_LIMIT`], so this indicates memory-layout corruption).
fn patch_imm(insn: &mut Insn, addr: u64) {
    let imm = i32::try_from(addr).expect("linked address exceeds i32 range");
    match insn {
        Insn::MovImm { imm: slot, .. } => *slot = imm,
        other => panic!("relocation applied to non-MovImm instruction {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::regs::*;

    fn lib_with(name: &str, syms: &[&str]) -> Module {
        let mut a = Asm::new(name);
        for s in syms {
            a.export(*s);
            a.label(*s);
            a.movi(R0, 1);
            a.ret();
        }
        a.finish().unwrap()
    }

    fn exe_calling(import: &str, needed: &[&str]) -> Module {
        let mut a = Asm::new("app");
        a.import(import);
        for n in needed {
            a.needs(*n);
        }
        a.export("main");
        a.label("main");
        a.call(import);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn basic_link_resolves_entry_and_symbols() {
        let img =
            Linker::new(exe_calling("f", &["l1"])).library(lib_with("l1", &["f"])).link().unwrap();
        assert_eq!(img.entry(), EXEC_BASE);
        let f = img.symbol("f").unwrap();
        assert!(img.module_named("l1").unwrap().contains_code(f));
    }

    #[test]
    fn got_contains_resolved_address() {
        let img =
            Linker::new(exe_calling("f", &["l1"])).library(lib_with("l1", &["f"])).link().unwrap();
        let app = img.executable();
        let got = img.read_bytes(app.got_start, 8).unwrap();
        let addr = u64::from_le_bytes(got.try_into().unwrap());
        assert_eq!(addr, img.symbol("f").unwrap());
    }

    #[test]
    fn plt_stub_decodes_to_indirect_jump() {
        let img =
            Linker::new(exe_calling("f", &["l1"])).library(lib_with("l1", &["f"])).link().unwrap();
        let app = img.executable();
        // Stub: movi fp, got; ld fp,[fp]; jmp *fp.
        let i0 = img.insn_at(app.plt_start).unwrap();
        let i1 = img.insn_at(app.plt_start + 8).unwrap();
        let i2 = img.insn_at(app.plt_start + 16).unwrap();
        assert!(matches!(i0, Insn::MovImm { imm, .. } if imm as u64 == app.got_start));
        assert!(matches!(i1, Insn::Load { .. }));
        assert!(matches!(i2, Insn::JmpInd { .. }));
        assert!(app.in_plt(app.plt_start));
    }

    #[test]
    fn interposition_follows_needed_order() {
        // Both libraries export `f`; the importer's DT_NEEDED order picks l2.
        let img = Linker::new(exe_calling("f", &["l2", "l1"]))
            .library(lib_with("l1", &["f"]))
            .library(lib_with("l2", &["f"]))
            .link()
            .unwrap();
        let f_in_exec_got = {
            let app = img.executable();
            let got = img.read_bytes(app.got_start, 8).unwrap();
            u64::from_le_bytes(got.try_into().unwrap())
        };
        assert!(img.module_named("l2").unwrap().contains_code(f_in_exec_got));
    }

    #[test]
    fn vdso_takes_precedence_over_libraries() {
        let img = Linker::new(exe_calling("gettimeofday", &["libc"]))
            .library(lib_with("libc", &["gettimeofday"]))
            .vdso(lib_with("vdso", &["gettimeofday"]))
            .link()
            .unwrap();
        let app = img.executable();
        let got = img.read_bytes(app.got_start, 8).unwrap();
        let addr = u64::from_le_bytes(got.try_into().unwrap());
        assert!(img.module_named("vdso").unwrap().contains_code(addr));
        assert!(addr >= VDSO_BASE);
    }

    #[test]
    fn executable_exports_win_over_all() {
        let mut a = Asm::new("app");
        a.import("f").needs("l1");
        a.export("main").export("f");
        a.label("main");
        a.call("f");
        a.halt();
        a.label("f");
        a.ret();
        let img = Linker::new(a.finish().unwrap()).library(lib_with("l1", &["f"])).link().unwrap();
        let app = img.executable();
        let got = img.read_bytes(app.got_start, 8).unwrap();
        let addr = u64::from_le_bytes(got.try_into().unwrap());
        assert!(app.contains_code(addr), "exec definition should interpose");
    }

    #[test]
    fn unresolved_symbol_reported() {
        let err = Linker::new(exe_calling("ghost", &[])).link().unwrap_err();
        assert_eq!(err, LinkError::UnresolvedSymbol { module: "app".into(), sym: "ghost".into() });
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn missing_entry_reported() {
        let mut a = Asm::new("app");
        a.label("not_main");
        a.halt();
        let err = Linker::new(a.finish().unwrap()).link().unwrap_err();
        assert_eq!(err, LinkError::NoEntry { sym: "main".into() });
    }

    #[test]
    fn custom_entry_symbol() {
        let mut a = Asm::new("app");
        a.export("_start");
        a.label("_start");
        a.halt();
        let img = Linker::new(a.finish().unwrap()).entry_symbol("_start").link().unwrap();
        assert_eq!(img.entry(), EXEC_BASE);
    }

    #[test]
    fn duplicate_module_name_rejected() {
        let err = Linker::new(exe_calling("f", &["l1"]))
            .library(lib_with("l1", &["f"]))
            .library(lib_with("l1", &["g"]))
            .link()
            .unwrap_err();
        assert_eq!(err, LinkError::DuplicateModule("l1".into()));
    }

    #[test]
    fn data_relocations_are_absolute() {
        let mut a = Asm::new("app");
        a.export("main").export("table");
        a.label("main");
        a.halt();
        a.label("h1");
        a.ret();
        a.data_ptrs("table", &["h1"]);
        let img = Linker::new(a.finish().unwrap()).link().unwrap();
        let app = img.executable();
        let table = img.symbol("table").unwrap();
        let entry = u64::from_le_bytes(img.read_bytes(table, 8).unwrap().try_into().unwrap());
        assert_eq!(entry, EXEC_BASE + 8); // h1 is the second instruction
        assert!(app.contains_code(entry));
    }

    #[test]
    fn segments_split_code_and_data_permissions() {
        let mut a = Asm::new("app");
        a.export("main");
        a.label("main");
        a.halt();
        a.data_bytes("buf", &[7; 8]);
        let img = Linker::new(a.finish().unwrap()).link().unwrap();
        let segs = img.segments();
        assert_eq!(segs.len(), 2);
        assert!(!segs[0].writable);
        assert!(segs[1].writable);
        assert_eq!(segs[1].bytes, &[7; 8]);
    }

    #[test]
    fn insn_at_rejects_data_and_misaligned() {
        let img =
            Linker::new(exe_calling("f", &["l1"])).library(lib_with("l1", &["f"])).link().unwrap();
        let app = img.executable();
        assert!(img.insn_at(app.base).is_some());
        assert!(img.insn_at(app.base + 1).is_none(), "misaligned");
        assert!(img.insn_at(app.got_start).is_none(), "GOT is not code");
        assert!(img.insn_at(0xdead_0000).is_none(), "unmapped");
    }

    #[test]
    fn module_lookup_by_address() {
        let img =
            Linker::new(exe_calling("f", &["l1"])).library(lib_with("l1", &["f"])).link().unwrap();
        assert_eq!(img.module_containing(EXEC_BASE).unwrap().name, "app");
        assert_eq!(img.module_containing(LIB_BASE).unwrap().name, "l1");
        assert!(img.module_containing(0x10).is_none());
        assert!(img.is_code(EXEC_BASE));
    }

    #[test]
    fn symbol_at_finds_function_names() {
        let img =
            Linker::new(exe_calling("f", &["l1"])).library(lib_with("l1", &["f"])).link().unwrap();
        let f = img.symbol("f").unwrap();
        assert_eq!(img.module_named("l1").unwrap().symbol_at(f), Some("f"));
    }
}
