//! On-disk container format for binary images (`.rkb`).
//!
//! A small, versioned, little-endian container, written and read with
//! the one byte codec ([`crate::codec`]), so images can be written by
//! one process (e.g. the benchmark generator) and analyzed by another
//! (the `rock` CLI):
//!
//! ```text
//! "RKB1"                                  magic + version
//! u32 section_count
//!   { u8 kind, u64 base, u64 len, bytes } per section
//! u32 symbol_count
//!   { u64 addr, u32 len, utf8 }           per symbol
//! u32 rtti_count
//!   { u64 vtable, u32 len, utf8, u32 n, u64×n } per record
//! ```
//!
//! A stripped image simply has zero symbols and zero RTTI records.

use std::error::Error;
use std::fmt;

use crate::codec::{Reader, WireError, Writer};
use crate::{BinaryImage, RttiRecord, Section, SectionKind, Symbol, SymbolTable};

/// Magic + version tag at the start of every serialized image.
pub const MAGIC: &[u8; 4] = b"RKB1";

/// An error produced while parsing a serialized image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageFormatError {
    /// The magic/version tag is wrong.
    BadMagic,
    /// The data ended prematurely.
    Truncated,
    /// A section kind byte is invalid.
    BadSectionKind(u8),
    /// A string is not valid UTF-8.
    BadString,
    /// Trailing bytes after the image.
    TrailingBytes(usize),
}

impl fmt::Display for ImageFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageFormatError::BadMagic => write!(f, "not an RKB1 image"),
            ImageFormatError::Truncated => write!(f, "truncated image file"),
            ImageFormatError::BadSectionKind(k) => write!(f, "invalid section kind {k}"),
            ImageFormatError::BadString => write!(f, "invalid utf-8 string"),
            ImageFormatError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl Error for ImageFormatError {}

fn kind_code(kind: SectionKind) -> u8 {
    match kind {
        SectionKind::Text => 0,
        SectionKind::RoData => 1,
        SectionKind::Data => 2,
    }
}

fn kind_from(code: u8) -> Option<SectionKind> {
    match code {
        0 => Some(SectionKind::Text),
        1 => Some(SectionKind::RoData),
        2 => Some(SectionKind::Data),
        _ => None,
    }
}

/// Serializes an image to the `.rkb` container format.
pub fn image_to_bytes(image: &BinaryImage) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u32(image.sections().len() as u32);
    for s in image.sections() {
        w.u8(kind_code(s.kind()));
        w.addr(s.base());
        w.u64(s.len() as u64);
        w.raw(s.bytes());
    }
    w.u32(image.symbols().len() as u32);
    for sym in image.symbols().iter() {
        w.addr(sym.addr);
        write_str(&mut w, &sym.name);
    }
    w.u32(image.rtti().len() as u32);
    for r in image.rtti() {
        w.addr(r.vtable);
        write_str(&mut w, &r.class_name);
        w.u32(r.ancestors.len() as u32);
        for &a in &r.ancestors {
            w.addr(a);
        }
    }
    w.into_bytes()
}

/// Strings in the container carry a `u32` length prefix.
fn write_str(w: &mut Writer, s: &str) {
    w.u32(s.len() as u32);
    w.raw(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String, ImageFormatError> {
    let len = r.u32("string length")? as usize;
    let bytes = r.bytes(len, "string")?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ImageFormatError::BadString)
}

/// Every codec failure inside an image is a truncation: a length field
/// that lies runs past the end of the data.
impl From<WireError> for ImageFormatError {
    fn from(_: WireError) -> ImageFormatError {
        ImageFormatError::Truncated
    }
}

/// Parses an image from the `.rkb` container format.
///
/// # Errors
///
/// Returns [`ImageFormatError`] for malformed input; never panics.
pub fn image_from_bytes(data: &[u8]) -> Result<BinaryImage, ImageFormatError> {
    let mut r = Reader::new(data);
    if r.bytes(MAGIC.len(), "magic")? != MAGIC {
        return Err(ImageFormatError::BadMagic);
    }
    let section_count = r.u32("section count")? as usize;
    let mut sections = Vec::with_capacity(section_count.min(16));
    for _ in 0..section_count {
        let kind = r.u8("section kind")?;
        let kind = kind_from(kind).ok_or(ImageFormatError::BadSectionKind(kind))?;
        let base = r.addr("section base")?;
        let len = r.len("section length")?;
        let bytes = r.bytes(len, "section bytes")?.to_vec();
        sections.push(Section::new(kind, base, bytes));
    }
    let symbol_count = r.u32("symbol count")? as usize;
    let mut symbols = SymbolTable::new();
    for _ in 0..symbol_count {
        let addr = r.addr("symbol address")?;
        let name = read_str(&mut r)?;
        symbols.insert(Symbol::new(addr, name));
    }
    let rtti_count = r.u32("rtti count")? as usize;
    let mut rtti = Vec::with_capacity(rtti_count.min(64));
    for _ in 0..rtti_count {
        let vtable = r.addr("rtti vtable")?;
        let class_name = read_str(&mut r)?;
        let n = r.u32("ancestor count")? as usize;
        let mut ancestors = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            ancestors.push(r.addr("ancestor")?);
        }
        rtti.push(RttiRecord { vtable, class_name, ancestors });
    }
    if !r.is_at_end() {
        return Err(ImageFormatError::TrailingBytes(data.len() - r.offset()));
    }
    Ok(BinaryImage::with_debug_info(sections, symbols, rtti))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ImageBuilder, Instr, Reg};

    fn sample_image() -> BinaryImage {
        let mut b = ImageBuilder::new();
        let f = b.begin_function("f");
        b.push(Instr::Enter { frame: 8 });
        b.push(Instr::MovImm { dst: Reg::R0, imm: 7 });
        b.push(Instr::Ret);
        b.end_function();
        let vt = b.add_vtable("vtable for A", vec![f]);
        b.add_rtti(vt, "A", vec![]);
        b.finish()
    }

    #[test]
    fn roundtrip_full_image() {
        let image = sample_image();
        let bytes = image_to_bytes(&image);
        let back = image_from_bytes(&bytes).unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn roundtrip_stripped_image() {
        let mut image = sample_image();
        image.strip();
        let back = image_from_bytes(&image_to_bytes(&image)).unwrap();
        assert_eq!(back, image);
        assert!(back.is_stripped());
    }

    #[test]
    fn bad_magic() {
        assert_eq!(image_from_bytes(b"NOPE"), Err(ImageFormatError::BadMagic));
        assert_eq!(image_from_bytes(b""), Err(ImageFormatError::Truncated));
    }

    #[test]
    fn truncation_everywhere() {
        let bytes = image_to_bytes(&sample_image());
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let err = image_from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes unexpectedly parsed");
        }
    }

    #[test]
    fn huge_length_fields_are_truncation_not_overflow() {
        let mut bytes = image_to_bytes(&sample_image());
        // The first section's len field: magic(4) + count(4) + kind(1) + base(8).
        bytes[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(image_from_bytes(&bytes), Err(ImageFormatError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = image_to_bytes(&sample_image());
        bytes.push(0);
        assert_eq!(image_from_bytes(&bytes), Err(ImageFormatError::TrailingBytes(1)));
    }

    #[test]
    fn bad_section_kind() {
        let mut bytes = image_to_bytes(&sample_image());
        // First section kind byte sits right after magic + count.
        bytes[8] = 9;
        assert_eq!(image_from_bytes(&bytes), Err(ImageFormatError::BadSectionKind(9)));
    }

    #[test]
    fn error_display() {
        assert_eq!(ImageFormatError::BadMagic.to_string(), "not an RKB1 image");
        assert_eq!(ImageFormatError::TrailingBytes(3).to_string(), "3 trailing bytes");
    }
}
