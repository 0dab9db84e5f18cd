//! # fg-isa — the synthetic ISA substrate for the FlowGuard reproduction
//!
//! The FlowGuard paper (HPCA 2017) enforces CFI over x86-64 COTS binaries.
//! This crate provides the binary substrate for the reproduction: a compact
//! fixed-width instruction set whose **change-of-flow instruction taxonomy is
//! identical to Table 3 of the paper** — unconditional direct branches emit
//! no trace output, conditional branches compress to TNT bits, indirect
//! branches and returns emit TIP packets, and far transfers (syscalls) emit
//! FUP/TIP pairs.
//!
//! Layers:
//!
//! * [`insn`] — instructions, 8-byte binary encoding, CoFI classification;
//! * [`asm`] — an assembler DSL for building relocatable [`module::Module`]s;
//! * [`module`] — module layout (code / PLT / GOT / data) and relocations;
//! * [`image`] — the [`image::Linker`] and the fully linked [`image::Image`],
//!   including PLT/GOT dynamic linking, `DT_NEEDED` symbol interposition and
//!   VDSO precedence, mirroring the paper's §4.1.
//!
//! # Examples
//!
//! Assemble, link, and introspect a two-module program:
//!
//! ```
//! use fg_isa::asm::Asm;
//! use fg_isa::image::Linker;
//! use fg_isa::insn::regs::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut libc = Asm::new("libc");
//! libc.export("id");
//! libc.label("id");
//! libc.ret();
//!
//! let mut app = Asm::new("app");
//! app.import("id").needs("libc");
//! app.export("main");
//! app.label("main");
//! app.movi(R0, 42);
//! app.call("id");
//! app.halt();
//!
//! let image = Linker::new(app.finish()?).library(libc.finish()?).link()?;
//! assert!(image.is_code(image.entry()));
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

pub mod asm;
pub mod image;
pub mod insn;
pub mod module;

pub use asm::Asm;
pub use image::{Image, Linker, LoadedModule, ModuleKind, StraightLine};
pub use insn::{AluOp, CofiKind, Cond, Insn, Reg, Width, INSN_SIZE};
pub use module::Module;
