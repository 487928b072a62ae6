//! Binary image substrate for the Rock reproduction.
//!
//! This crate models everything Rock (Katz, Rinetzky, Yahav — ASPLOS'18)
//! assumes about its input: a flat, byte-addressed **binary image** with a
//! text section holding byte-encoded machine instructions, a read-only data
//! section holding **virtual function tables** (arrays of code pointers) and
//! optional RTTI records, and an optional symbol table that stripping
//! removes.
//!
//! The instruction set is a small RISC-flavoured ISA that is nevertheless
//! rich enough to express everything the paper's analysis consumes:
//! vtable-pointer stores into objects, indirect (virtual) calls through
//! vtable slots, field loads/stores at object offsets, direct calls, and
//! ordinary control flow. Instructions are *really encoded to bytes* and
//! decoded back by [`decode_instr`], so downstream crates work from a
//! genuine "disassembly" rather than an AST.
//!
//! [`codec`] is the workspace's one byte codec: the `.rkb` container
//! here, and every corpus entry, store frame, fingerprint and serve
//! frame elsewhere, are written and read with it.
//!
//! # Example
//!
//! ```
//! use rock_binary::{ImageBuilder, Instr, Reg, SectionKind};
//!
//! let mut b = ImageBuilder::new();
//! let f = b.begin_function("f");
//! b.push(Instr::Enter { frame: 16 });
//! b.push(Instr::MovImm { dst: Reg::R0, imm: 42 });
//! b.push(Instr::Ret);
//! b.end_function();
//! let image = b.finish();
//! assert!(image.section(SectionKind::Text).is_some());
//! assert_eq!(image.symbols().len(), 1);
//! let _ = f;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod builder;
pub mod codec;
mod encode;
mod error;
mod image;
mod instr;
mod reg;
mod rtti;
mod section;
mod serialize;
mod symbol;

pub use addr::Addr;
pub use builder::{FunctionHandle, ImageBuilder, VtableHandle};
pub use encode::{decode_instr, encode_instr, encoded_len};
pub use error::DecodeError;
pub use image::BinaryImage;
pub use instr::{BinOp, Instr};
pub use reg::Reg;
pub use rtti::RttiRecord;
pub use section::{Section, SectionKind};
pub use serialize::{image_from_bytes, image_to_bytes, ImageFormatError, MAGIC};
pub use symbol::{Symbol, SymbolTable};

/// Size, in bytes, of one machine word (pointers, vtable slots).
pub const WORD_SIZE: u64 = 8;
