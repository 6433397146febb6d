//! Binary serialisation of a single [`Frame`] segment.
//!
//! Spilled segments leave the process boundary, so — exactly like the
//! stage-graph artifact codec — `Sym` cells are encoded through a
//! per-segment dictionary of *resolved strings*, never as raw 4-byte
//! interner tokens (tokens are only meaningful within one process run).
//! Every read during decode is bounds-checked; a malformed payload
//! surfaces as [`FrameError::Codec`] instead of a panic.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u32  n_cols
//! per column: u32 name_len, name bytes (UTF-8), u8 dtype tag
//! u64  n_rows
//! per column payload:
//!   F64  rows × 8 bytes (f64::to_le_bytes of the bit pattern)
//!   I64  rows × 8 bytes
//!   Bool rows × 1 byte (0/1)
//!   Str  per row: u32 len, bytes
//!   Sym  u32 dict_len, dict entries (u32 len + bytes), rows × u32 index
//! ```

use crate::column::{Column, DType};
use crate::error::{FrameError, Result};
use crate::frame::Frame;

fn dtype_tag(dt: DType) -> u8 {
    match dt {
        DType::F64 => 0,
        DType::I64 => 1,
        DType::Str => 2,
        DType::Bool => 3,
        DType::Sym => 4,
    }
}

fn tag_dtype(tag: u8) -> Result<DType> {
    Ok(match tag {
        0 => DType::F64,
        1 => DType::I64,
        2 => DType::Str,
        3 => DType::Bool,
        4 => DType::Sym,
        other => return Err(FrameError::Codec(format!("unknown dtype tag {other}"))),
    })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Encode a frame segment to bytes.
pub(crate) fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, frame.n_cols() as u32);
    for (name, col) in frame.names().iter().zip(frame.columns_iter()) {
        put_bytes(&mut out, name.as_bytes());
        out.push(dtype_tag(col.dtype()));
    }
    out.extend_from_slice(&(frame.n_rows() as u64).to_le_bytes());
    for col in frame.columns_iter() {
        match col {
            Column::F64(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Column::I64(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Column::Str(v) => {
                for s in v {
                    put_bytes(&mut out, s.as_bytes());
                }
            }
            Column::Bool(v) => {
                for &b in v {
                    out.push(b as u8);
                }
            }
            Column::Sym(v) => {
                // Per-segment dictionary in first-use order of the
                // *resolved* strings.
                let mut dict: Vec<spec_intern::Sym> = Vec::new();
                let mut ids: Vec<u32> = Vec::with_capacity(v.len());
                for &sym in v {
                    let id = match dict.iter().position(|&d| d == sym) {
                        Some(i) => i as u32,
                        None => {
                            dict.push(sym);
                            (dict.len() - 1) as u32
                        }
                    };
                    ids.push(id);
                }
                put_u32(&mut out, dict.len() as u32);
                for sym in &dict {
                    put_bytes(&mut out, sym.resolve().as_bytes());
                }
                for id in ids {
                    put_u32(&mut out, id);
                }
            }
        }
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                FrameError::Codec(format!(
                    "truncated segment: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Codec("segment string is not UTF-8".into()))
    }
}

/// Decode a frame segment produced by [`encode_frame`].
pub(crate) fn decode_frame(bytes: &[u8]) -> Result<Frame> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let n_cols = r.u32()? as usize;
    // A segment holds at most a few dozen feature columns; a huge count is
    // a corrupt header, not a real frame.
    if n_cols > 4096 {
        return Err(FrameError::Codec(format!("implausible column count {n_cols}")));
    }
    let mut header: Vec<(String, DType)> = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let name = r.str()?;
        let dtype = tag_dtype(r.u8()?)?;
        header.push((name, dtype));
    }
    let n_rows = r.u64()? as usize;
    let mut frame = Frame::new();
    for (name, dtype) in header {
        let col = match dtype {
            DType::F64 => {
                let mut v = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let b = r.take(8)?;
                    let mut a = [0u8; 8];
                    a.copy_from_slice(b);
                    v.push(f64::from_le_bytes(a));
                }
                Column::F64(v)
            }
            DType::I64 => {
                let mut v = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    v.push(r.u64()? as i64);
                }
                Column::I64(v)
            }
            DType::Str => {
                let mut v = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    v.push(r.str()?);
                }
                Column::Str(v)
            }
            DType::Bool => {
                let mut v = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    v.push(match r.u8()? {
                        0 => false,
                        1 => true,
                        other => {
                            return Err(FrameError::Codec(format!("bad bool byte {other}")))
                        }
                    });
                }
                Column::Bool(v)
            }
            DType::Sym => {
                let dict_len = r.u32()? as usize;
                let mut dict = Vec::with_capacity(dict_len.min(n_rows.max(16)));
                for _ in 0..dict_len {
                    dict.push(spec_intern::intern(&r.str()?));
                }
                let mut v = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let id = r.u32()? as usize;
                    let sym = *dict.get(id).ok_or_else(|| {
                        FrameError::Codec(format!(
                            "sym index {id} out of range (dict has {dict_len})"
                        ))
                    })?;
                    v.push(sym);
                }
                Column::Sym(v)
            }
        };
        frame
            .add_column(name, col)
            .map_err(|e| FrameError::Codec(format!("decoded segment invalid: {e}")))?;
    }
    if r.pos != bytes.len() {
        return Err(FrameError::Codec(format!(
            "{} trailing bytes after segment payload",
            bytes.len() - r.pos
        )));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        let syms: Vec<spec_intern::Sym> = ["AMD", "Intel", "AMD"]
            .iter()
            .map(|s| spec_intern::intern(s))
            .collect();
        Frame::from_columns([
            ("year", Column::from(vec![2007i64, 2008, -3])),
            ("watts", Column::from(vec![1.5, f64::NAN, f64::INFINITY])),
            ("os", Column::from(vec!["a", "", "with,comma"])),
            ("ok", Column::from(vec![true, false, true])),
            ("vendor", Column::Sym(syms)),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let f = sample();
        let bytes = encode_frame(&f);
        let g = decode_frame(&bytes).unwrap();
        assert_eq!(g.names(), f.names());
        assert_eq!(g.i64s("year").unwrap(), f.i64s("year").unwrap());
        // Bit-level float equality (NaN payloads included).
        let fa: Vec<u64> = f.f64s("watts").unwrap().iter().map(|x| x.to_bits()).collect();
        let ga: Vec<u64> = g.f64s("watts").unwrap().iter().map(|x| x.to_bits()).collect();
        assert_eq!(fa, ga);
        assert_eq!(g.column("os").unwrap().as_str().unwrap(), f.column("os").unwrap().as_str().unwrap());
        assert_eq!(g.bools("ok").unwrap(), f.bools("ok").unwrap());
        assert_eq!(g.syms("vendor").unwrap(), f.syms("vendor").unwrap());
    }

    #[test]
    fn empty_frame_roundtrips() {
        let f = Frame::new();
        assert_eq!(decode_frame(&encode_frame(&f)).unwrap().n_cols(), 0);
    }

    #[test]
    fn truncation_is_an_error_everywhere() {
        let bytes = encode_frame(&sample());
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_frame(&bytes[..cut]), Err(FrameError::Codec(_))),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_frame(&sample());
        bytes.push(0);
        assert!(matches!(decode_frame(&bytes), Err(FrameError::Codec(_))));
    }

    #[test]
    fn bad_sym_index_rejected() {
        let f = Frame::from_columns([(
            "v",
            Column::Sym(vec![spec_intern::intern("only")]),
        )])
        .unwrap();
        let mut bytes = encode_frame(&f);
        // The final u32 is the row's dictionary index; corrupt it.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(FrameError::Codec(_))));
    }
}
