//! Binary payload codec for the wire protocol's response frames.
//!
//! Requests stay single-line UTF-8 text; *responses* are tagged binary payloads inside the
//! same length-prefixed framing (see [`crate::wire`]). The first payload byte is the frame
//! tag:
//!
//! | tag   | frame    | body                                                          |
//! |-------|----------|---------------------------------------------------------------|
//! | `+`   | text     | UTF-8 text (simple command responses, `hello` ack)            |
//! | `-`   | error    | UTF-8 error message                                           |
//! | `S`   | schema   | u16 ncols, then per column u16 name-len + name + u8 type tag  |
//! | `R`   | chunk    | u32 rows, u16 ncols, then one encoded array per column        |
//! | `D`   | done     | u64 total row count                                           |
//!
//! All integers are big-endian (matching the frame length prefix). Arrays ship in their
//! *factorized* form: a dictionary view keeps its 4-byte indices and sends each distinct
//! dictionary row once (after compacting away unreferenced rows) — or, when its indices form
//! long runs, one row per run — and long constant stretches of a plain column are run-length
//! compressed at encode time. The engine hands over join output as views that share a few index
//! buffers (see `perm_exec::parallel`); a shared buffer is analysed *and written* once per frame:
//! the first view over it carries its indices (or run ends), every later one refers back to them
//! by ordinal, and the decoder hands all of those views one shared buffer again. Array encoding:
//!
//! ```text
//! array      := enc-tag:u8 body
//! enc-tag    := 0 (plain) | 1 (dict) | 2 (run-length) | 3 (shared dict)
//!             | 4 (remembered dict) | 5 (shared remembered dict)
//! plain      := type-tag:u8 len:u32 payload           ; type-specific, see below
//! dict       := count:u32 index:u32{count} 0 plain    ; indices, then the dictionary
//! rle        := runs:u32 run-end:u32{runs} 0 plain    ; one representative row per run
//! shared     := ordinal:u32 0 plain                   ; over the k-th dict / rle of the frame
//! remembered := count:u32 index:u32{count}            ; into the column's remembered dictionary
//! shared-rem := ordinal:u32                           ; the k-th remembered's indices
//! ```
//!
//! The arrays of encodings 1, 2 and 4 are numbered from 0 in frame order; an encoding-3 array is
//! a dictionary (one row per run, for a run-length buffer) over the indices of the 1 or 2 its
//! ordinal names, and an encoding-5 array indexes its own column's remembered dictionary with
//! the indices of the 4 its ordinal names; either must come earlier in the frame. The inner
//! array of encodings 1–3 is always plain; any other inner encoding is a protocol error.
//!
//! A result stream (`S` … `D`/`-`) has a dictionary memory per column position, kept alike by
//! [`ResultEncoder`] and [`ResultDecoder`]: the dictionary of the column's last encoding 1 (or 3
//! over a 1) replaces it, and encodings 4 and 5 index it, so a dictionary row crosses the wire
//! once per result while later frames only reference it. A 4 or 5 whose column remembers
//! nothing, or with an index past what it remembers, is a protocol error. [`encode_chunk`] and
//! [`decode_chunk`] are a result of one frame: a frame alone never writes a 4 or 5, and the
//! stateless decoder rejects one.
//!
//! Plain payloads carry a validity bitmap (`ceil(len/8)` bytes, bit `i` of byte `i/8` set iff
//! row `i` is non-NULL) followed by native values: bit-packed bools, 8-byte ints/floats,
//! 4-byte dates, or `u32`-length-prefixed UTF-8 for text. `Null` columns have no payload. Every
//! column holds one type, so there is no per-value tag; type tag 6 (a boxed mixed column up to
//! protocol v4) is a protocol error.

use std::collections::HashMap;
use std::sync::Arc;

use perm_algebra::chunk::text_row;
use perm_algebra::{Array, Bitmap, DataChunk, DataType, Schema};

use crate::error::ServiceError;

/// The protocol version this build speaks (negotiated by the `hello` handshake).
pub const PROTOCOL_VERSION: u32 = 6;

/// Frame tag bytes.
pub mod tag {
    /// Simple text response.
    pub const TEXT: u8 = b'+';
    /// Error response (possibly mid-stream, invalidating earlier chunk frames).
    pub const ERROR: u8 = b'-';
    /// Result schema header.
    pub const SCHEMA: u8 = b'S';
    /// One chunk of result rows.
    pub const RESULT: u8 = b'R';
    /// End-of-stream trailer.
    pub const DONE: u8 = b'D';
}

/// Dictionaries at most this large are compacted with a dense `Vec` remap table; larger ones
/// fall back to a hash map so a huge build side referenced by a tiny chunk stays cheap.
const DENSE_REMAP_LIMIT: usize = 4096;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode a schema frame (`S`).
pub fn encode_schema(schema: &Schema) -> Vec<u8> {
    let mut out = vec![tag::SCHEMA];
    out.extend_from_slice(&(schema.arity() as u16).to_be_bytes());
    for attr in schema.attributes() {
        let name = attr.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name);
        out.push(type_tag(attr.data_type));
    }
    out
}

/// Encode a result-chunk frame (`R`) as a result of this one frame: each column factorized as
/// [`ResultEncoder::encode_chunk`] describes, with nothing remembered from earlier frames.
pub fn encode_chunk(chunk: &DataChunk) -> Vec<u8> {
    ResultEncoder::default().encode_chunk(chunk)
}

/// The encoder of one result stream: each column position's dictionary memory (see the module
/// docs). A fresh encoder's first frame is [`encode_chunk`]'s, byte for byte.
#[derive(Default)]
pub struct ResultEncoder {
    memory: Vec<Option<Remembered>>,
}

/// The dictionary a column last sent: the source it was gathered from — held, so no other
/// array can take its address while the stream runs — and where each source row sits in it.
/// The columns whose dictionaries went out over one index buffer share `sent`.
struct Remembered {
    source: Arc<Array>,
    sent: Arc<Remap>,
}

impl ResultEncoder {
    /// Encode a result-chunk frame (`R`), factorizing each column: dict views go out run-length
    /// encoded or compacted to their referenced rows — each shared index buffer once — or, where
    /// every view over a buffer remembers a dictionary that holds all its rows, as indices into
    /// it; plain columns with long constant stretches are run-length compressed.
    pub fn encode_chunk(&mut self, chunk: &DataChunk) -> Vec<u8> {
        let mut out = vec![tag::RESULT];
        out.extend_from_slice(&(chunk.num_rows() as u32).to_be_bytes());
        out.extend_from_slice(&(chunk.num_columns() as u16).to_be_bytes());
        self.memory.resize_with(chunk.num_columns(), || None);
        let mut frame = Frame { buffers: Vec::new(), written: 0 };
        for c in 0..chunk.num_columns() {
            self.encode_column(chunk, c, &mut frame, &mut out);
        }
        out
    }

    /// Encode column `c` in its most compact wire form.
    fn encode_column<'a>(
        &mut self,
        chunk: &'a DataChunk,
        c: usize,
        frame: &mut Frame<'a>,
        out: &mut Vec<u8>,
    ) {
        let Frame { buffers, written } = frame;
        let array = chunk.column(c);
        let (indices, dict) = match array.as_ref() {
            Array::Dict { indices, dict } => (indices, dict),
            Array::RunLength { values, run_ends } => {
                return encode_indexed(2, run_ends, &values.to_plain(), written, out);
            }
            plain => return encode_values(plain, written, out),
        };
        let known = buffers.iter().position(|seen| Arc::ptr_eq(seen.buffer, indices));
        let known = known.unwrap_or_else(|| {
            let form = self.form_of(chunk, c, indices, dict);
            buffers.push(Seen { buffer: indices, form, ordinal: None });
            buffers.len() - 1
        });
        let Seen { form, ordinal, .. } = &mut buffers[known];
        let form = match form {
            BufferForm::Remembered(renumbered) => {
                match *ordinal {
                    Some(k) => {
                        out.push(5);
                        out.extend_from_slice(&k.to_be_bytes());
                    }
                    None => {
                        *ordinal = Some(*written);
                        *written += 1;
                        out.push(4);
                        encode_u32s(renumbered, out);
                    }
                }
                return;
            }
            BufferForm::Fresh(form) => form,
        };
        if let IndexForm::Compacted { indices, rows, remap } = form {
            // A dictionary that is (almost) as long as the chunk saves nothing over sending the
            // rows plainly — only keep the factorized form when rows repeat.
            if rows.len() >= indices.len() {
                return encode_values(&array.to_plain(), written, out);
            }
            self.memory[c] = Some(Remembered { source: dict.clone(), sent: remap.clone() });
        }
        let dictionary = dictionary_rows(dict, form.rows());
        match (*ordinal, &*form) {
            (Some(k), _) => {
                out.push(3);
                out.extend_from_slice(&k.to_be_bytes());
                encode_plain(&dictionary, out);
            }
            (None, form) => {
                *ordinal = Some(*written);
                let (tag, indices) = match form {
                    IndexForm::Runs { run_ends, .. } => (2, run_ends),
                    IndexForm::Compacted { indices, .. } => (1, indices),
                };
                encode_indexed(tag, indices, &dictionary, written, out);
            }
        }
    }

    /// The wire form of `buffer`, met first in its frame under column `c`, a view over `dict`.
    /// The buffer goes out as indices into remembered dictionaries where a frame alone would send
    /// its compacted dictionary, every view over it remembers a dictionary of its own source from
    /// one compaction, and that compaction holds every row the buffer references.
    fn form_of(
        &self,
        chunk: &DataChunk,
        c: usize,
        buffer: &Arc<[u32]>,
        dict: &Array,
    ) -> BufferForm {
        let form = IndexForm::of(buffer, dict.len());
        let IndexForm::Compacted { indices, rows, .. } = &form else {
            return BufferForm::Fresh(form);
        };
        if rows.len() >= indices.len() {
            return BufferForm::Fresh(form);
        }
        let mut sent: Option<&Arc<Remap>> = None;
        for (column, memory) in chunk.columns()[c..].iter().zip(&self.memory[c..]) {
            let Array::Dict { indices: other, dict } = column.as_ref() else { continue };
            if !Arc::ptr_eq(other, buffer) {
                continue;
            }
            match memory {
                Some(memory)
                    if Arc::ptr_eq(&memory.source, dict)
                        && sent.is_none_or(|sent| Arc::ptr_eq(sent, &memory.sent)) =>
                {
                    sent = Some(&memory.sent);
                }
                _ => return BufferForm::Fresh(form),
            }
        }
        let renumbered: Option<Vec<u32>> =
            sent.and_then(|sent| rows.iter().map(|&row| sent.get(row)).collect());
        match renumbered {
            Some(at) => BufferForm::Remembered(indices.iter().map(|&i| at[i as usize]).collect()),
            None => BufferForm::Fresh(form),
        }
    }
}

/// Encode a done trailer (`D`) carrying the stream's total row count.
pub fn encode_done(rows: u64) -> Vec<u8> {
    let mut out = vec![tag::DONE];
    out.extend_from_slice(&rows.to_be_bytes());
    out
}

/// Encode a text (`+`) or error (`-`) frame.
pub fn encode_text(tag_byte: u8, text: &str) -> Vec<u8> {
    let mut out = vec![tag_byte];
    out.extend_from_slice(text.as_bytes());
    out
}

fn type_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Date => 4,
        DataType::Null => 5,
    }
}

fn type_from_tag(tag: u8) -> Result<DataType, ServiceError> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Date,
        5 => DataType::Null,
        other => return Err(ServiceError::protocol(format!("unknown type tag {other}"))),
    })
}

/// Where each referenced source row sits in a compacted dictionary: a dense table or, past
/// [`DENSE_REMAP_LIMIT`] source rows, a hash map.
enum Remap {
    Dense(Vec<u32>),
    Sparse(HashMap<u32, u32>),
}

impl Remap {
    fn for_source(len: usize) -> Remap {
        if len <= DENSE_REMAP_LIMIT {
            Remap::Dense(vec![u32::MAX; len])
        } else {
            Remap::Sparse(HashMap::new())
        }
    }

    /// The position of source row `row`, which takes position `next` if it has none yet.
    fn number(&mut self, row: u32, next: u32) -> u32 {
        match self {
            Remap::Dense(table) => {
                let slot = &mut table[row as usize];
                if *slot == u32::MAX {
                    *slot = next;
                }
                *slot
            }
            Remap::Sparse(map) => *map.entry(row).or_insert(next),
        }
    }

    fn get(&self, row: u32) -> Option<u32> {
        match self {
            Remap::Dense(table) => table.get(row as usize).copied().filter(|&at| at != u32::MAX),
            Remap::Sparse(map) => map.get(&row).copied(),
        }
    }
}

/// The wire form of one index buffer, worked out once per frame for all the views sharing it.
enum IndexForm {
    /// Long runs of one index ([`Array::run_length_pays`], the threshold plain columns
    /// compress at): the cumulative run ends and the dictionary row of each run.
    Runs { run_ends: Vec<u32>, rows: Vec<u32> },
    /// Otherwise: indices renumbered densely over `rows`, the referenced dictionary rows in
    /// first-use order — a frame never ships a dictionary row its chunk does not use — and the
    /// renumbering itself.
    Compacted { indices: Vec<u32>, rows: Vec<u32>, remap: Arc<Remap> },
}

impl IndexForm {
    fn of(indices: &[u32], dict_len: usize) -> IndexForm {
        let breaks = || (1..indices.len()).filter(|&i| indices[i] != indices[i - 1]);
        if Array::run_length_pays(breaks().count() + 1, indices.len()) {
            let run_ends: Vec<u32> =
                breaks().chain([indices.len()]).map(|end| end as u32).collect();
            let rows = run_ends.iter().map(|&end| indices[end as usize - 1]).collect();
            return IndexForm::Runs { run_ends, rows };
        }
        let mut rows: Vec<u32> = Vec::new();
        let mut remap = Remap::for_source(dict_len);
        let indices = indices
            .iter()
            .map(|&i| {
                let at = remap.number(i, rows.len() as u32);
                if at as usize == rows.len() {
                    rows.push(i);
                }
                at
            })
            .collect();
        IndexForm::Compacted { indices, rows, remap: Arc::new(remap) }
    }

    /// The dictionary row each run (or each compacted index) stands for.
    fn rows(&self) -> &[u32] {
        match self {
            IndexForm::Runs { rows, .. } | IndexForm::Compacted { rows, .. } => rows,
        }
    }
}

/// The wire form of an index buffer in one frame of a result.
enum BufferForm {
    /// Every view over the buffer remembers a dictionary of one earlier compaction that holds
    /// all its rows: the indices renumbered into it (encodings 4 and 5).
    Remembered(Vec<u32>),
    /// As a frame alone writes it (encodings 1 and 3, 2 and 3, or plain).
    Fresh(IndexForm),
}

/// An index buffer met in a frame, by identity: its wire form and, once written, its ordinal.
struct Seen<'a> {
    buffer: &'a Arc<[u32]>,
    form: BufferForm,
    ordinal: Option<u32>,
}

/// What a frame has written so far: every index buffer it met, and how many arrays took an
/// ordinal (encodings 1, 2 and 4) — the ordinal the next one takes.
struct Frame<'a> {
    buffers: Vec<Seen<'a>>,
    written: u32,
}

/// The rows of a dictionary at `rows`, as a plain array.
fn dictionary_rows(dict: &Arc<Array>, rows: &[u32]) -> Array {
    let gathered = dict.take(rows);
    if gathered.is_encoded() {
        gathered.to_plain()
    } else {
        gathered
    }
}

fn encode_u32s(values: &[u32], out: &mut Vec<u8>) {
    out.extend_from_slice(&(values.len() as u32).to_be_bytes());
    for v in values {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

/// Write a plain array, run-length compressed where that pays.
fn encode_values(plain: &Array, written: &mut u32, out: &mut Vec<u8>) {
    match plain.rle_compress() {
        Some(Array::RunLength { values, run_ends }) => {
            encode_indexed(2, &run_ends, &values, written, out);
        }
        _ => encode_plain(plain, out),
    }
}

/// Write a dict (encoding 1: `u32s` are indices) or run-length array (encoding 2: run ends);
/// it takes the frame's next ordinal.
fn encode_indexed(tag: u8, u32s: &[u32], values: &Array, written: &mut u32, out: &mut Vec<u8>) {
    *written += 1;
    out.push(tag);
    encode_u32s(u32s, out);
    encode_plain(values, out);
}

fn encode_validity(validity: &Bitmap, out: &mut Vec<u8>) {
    let mut bytes = vec![0u8; validity.len().div_ceil(8)];
    for (i, set) in validity.iter().enumerate() {
        if set {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bytes);
}

fn encode_plain(array: &Array, out: &mut Vec<u8>) {
    debug_assert!(!array.is_encoded());
    out.push(0);
    let len = array.len() as u32;
    match array {
        Array::Bool { values, validity } => {
            out.push(0);
            out.extend_from_slice(&len.to_be_bytes());
            encode_validity(validity, out);
            let mut bytes = vec![0u8; values.len().div_ceil(8)];
            for (i, &v) in values.iter().enumerate() {
                if v {
                    bytes[i / 8] |= 1 << (i % 8);
                }
            }
            out.extend_from_slice(&bytes);
        }
        Array::Int { values, validity } => {
            out.push(1);
            out.extend_from_slice(&len.to_be_bytes());
            encode_validity(validity, out);
            for v in values {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        Array::Float { values, validity } => {
            out.push(2);
            out.extend_from_slice(&len.to_be_bytes());
            encode_validity(validity, out);
            for v in values {
                out.extend_from_slice(&v.to_bits().to_be_bytes());
            }
        }
        Array::Text { offsets, bytes, validity } => {
            out.push(3);
            out.extend_from_slice(&len.to_be_bytes());
            encode_validity(validity, out);
            // Lengths, and slices of the column's one buffer.
            out.reserve(bytes.len() + 4 * array.len());
            for row in 0..array.len() {
                let text = text_row(offsets, bytes, row);
                out.extend_from_slice(&(text.len() as u32).to_be_bytes());
                out.extend_from_slice(text);
            }
        }
        Array::Date { values, validity } => {
            out.push(4);
            out.extend_from_slice(&len.to_be_bytes());
            encode_validity(validity, out);
            for v in values {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        Array::Null { .. } => {
            out.push(5);
            out.extend_from_slice(&len.to_be_bytes());
        }
        Array::Dict { .. } | Array::RunLength { .. } => unreachable!("encoded array"),
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A byte cursor over one frame payload with protocol-error reporting.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServiceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| ServiceError::protocol("truncated response frame"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Take exactly `N` bytes as a fixed-size array (`take` guarantees the length).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ServiceError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ServiceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServiceError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, ServiceError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ServiceError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// A `u32` count followed by that many `u32`s.
    fn u32s(&mut self) -> Result<Vec<u32>, ServiceError> {
        let count = self.u32()? as usize;
        let mut values = Vec::with_capacity(count.min(self.remaining() / 4));
        for _ in 0..count {
            values.push(self.u32()?);
        }
        Ok(values)
    }

    fn i32(&mut self) -> Result<i32, ServiceError> {
        Ok(i32::from_be_bytes(self.array()?))
    }

    fn i64(&mut self) -> Result<i64, ServiceError> {
        Ok(i64::from_be_bytes(self.array()?))
    }

    /// Bytes not yet consumed. Every length-prefixed preallocation below is capped by this
    /// (divided by the element's minimum encoded size), so a corrupt or hostile frame
    /// claiming a huge element count can never force an allocation larger than the frame
    /// itself — decoding then fails with a clean truncation error instead.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn finish(&self) -> Result<(), ServiceError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ServiceError::protocol("trailing bytes after response frame"))
        }
    }
}

/// Decode a schema frame body (the payload after the `S` tag byte).
pub fn decode_schema(body: &[u8]) -> Result<Schema, ServiceError> {
    let mut cur = Cursor::new(body);
    let ncols = cur.u16()? as usize;
    let mut pairs: Vec<(String, DataType)> = Vec::with_capacity(ncols.min(cur.remaining()));
    for _ in 0..ncols {
        let name_len = cur.u16()? as usize;
        let name = String::from_utf8(cur.take(name_len)?.to_vec())
            .map_err(|_| ServiceError::protocol("schema name is not valid UTF-8"))?;
        let data_type = type_from_tag(cur.u8()?)?;
        pairs.push((name, data_type));
    }
    cur.finish()?;
    let refs: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    Ok(Schema::from_pairs(&refs))
}

/// Decode a result-chunk frame body (the payload after the `R` tag byte) as a result of this one
/// frame: an array indexing a remembered dictionary (encoding 4 or 5) is a protocol error.
pub fn decode_chunk(body: &[u8]) -> Result<DataChunk, ServiceError> {
    ResultDecoder::default().decode_chunk(body)
}

/// The decoder of one result stream: the mirror of [`ResultEncoder`]'s memory, each column
/// position's last decoded dictionary, which every chunk indexing it shares. A result starts
/// from a fresh one.
#[derive(Default)]
pub struct ResultDecoder {
    memory: Vec<Option<Arc<Array>>>,
}

impl ResultDecoder {
    /// Decode a result-chunk frame body (the payload after the `R` tag byte). A dictionary the
    /// frame sends replaces its column's memory once the whole frame has decoded.
    pub fn decode_chunk(&mut self, body: &[u8]) -> Result<DataChunk, ServiceError> {
        let mut cur = Cursor::new(body);
        let rows = cur.u32()? as usize;
        let ncols = cur.u16()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(cur.remaining()));
        let mut written = Vec::new();
        let mut sent = Vec::new();
        for c in 0..ncols {
            let remembered = self.memory.get(c).and_then(Option::as_ref);
            let (array, dictionary) = decode_array(&mut cur, &mut written, remembered)?;
            if array.len() != rows {
                return Err(ServiceError::protocol("chunk column length mismatch"));
            }
            sent.extend(dictionary.map(|dictionary| (c, dictionary)));
            columns.push(array);
        }
        cur.finish()?;
        for (c, dictionary) in sent {
            if self.memory.len() <= c {
                self.memory.resize(c + 1, None);
            }
            self.memory[c] = Some(dictionary);
        }
        if columns.is_empty() {
            Ok(DataChunk::zero_width(rows))
        } else {
            Ok(DataChunk::new(columns))
        }
    }
}

/// Decode a done trailer body (the payload after the `D` tag byte).
pub fn decode_done(body: &[u8]) -> Result<u64, ServiceError> {
    let mut cur = Cursor::new(body);
    let rows = cur.u64()?;
    cur.finish()?;
    Ok(rows)
}

/// An array of encoding 1, 2 or 4, which a later array of its frame may name by ordinal.
enum Written {
    /// Encoding 1, or 4 (`remembered`): the indices, and the length a dictionary over them must
    /// have (one past the largest index).
    Indices { indices: Arc<[u32]>, needs: usize, remembered: bool },
    /// Encoding 2: the run ends; values over them hold exactly one row per run.
    Runs(Vec<u32>),
}

/// The length a dictionary over `indices` must have.
fn needs(indices: &[u32]) -> usize {
    indices.iter().max().map_or(0, |&i| i as usize + 1)
}

/// Decode one top-level array of a column that remembers `remembered`; also returns the
/// dictionary the array sends (encoding 1, or 3 over a 1), which the column remembers next.
/// `written` holds the frame's arrays of encodings 1, 2 and 4 so far.
fn decode_array(
    cur: &mut Cursor<'_>,
    written: &mut Vec<Written>,
    remembered: Option<&Arc<Array>>,
) -> Result<(Arc<Array>, Option<Arc<Array>>), ServiceError> {
    let remembered_dict = |tag: u8, needs: usize| match remembered {
        Some(dict) if needs <= dict.len() => Ok(dict.clone()),
        Some(_) => Err(ServiceError::protocol("index past the remembered dictionary")),
        None => Err(ServiceError::protocol(format!(
            "encoding {tag} in a column that remembers no dictionary"
        ))),
    };
    let (array, sent) = match cur.u8()? {
        0 => (decode_plain(cur)?, None),
        1 => {
            let indices: Arc<[u32]> = cur.u32s()?.into();
            let needs = needs(&indices);
            let dict = Arc::new(decode_inner(cur)?);
            if needs > dict.len() {
                return Err(ServiceError::protocol("dictionary index out of bounds"));
            }
            written.push(Written::Indices { indices: indices.clone(), needs, remembered: false });
            (Array::Dict { indices, dict: dict.clone() }, Some(dict))
        }
        2 => {
            let run_ends = cur.u32s()?;
            if run_ends.windows(2).any(|w| w[0] >= w[1]) || run_ends.first() == Some(&0) {
                return Err(ServiceError::protocol("run ends are not strictly increasing"));
            }
            let values = decode_inner(cur)?;
            if values.len() != run_ends.len() {
                return Err(ServiceError::protocol("run values length mismatch"));
            }
            written.push(Written::Runs(run_ends.clone()));
            (Array::RunLength { values: Arc::new(values), run_ends }, None)
        }
        3 => {
            let ordinal = cur.u32()? as usize;
            let earlier = written.get(ordinal).ok_or_else(|| {
                ServiceError::protocol(format!(
                    "shared array refers to unwritten ordinal {ordinal}"
                ))
            })?;
            let values = Arc::new(decode_inner(cur)?);
            match earlier {
                Written::Indices { indices, needs, remembered: false }
                    if values.len() >= *needs =>
                {
                    (Array::Dict { indices: indices.clone(), dict: values.clone() }, Some(values))
                }
                Written::Runs(run_ends) if values.len() == run_ends.len() => {
                    (Array::RunLength { values, run_ends: run_ends.clone() }, None)
                }
                _ => return Err(ServiceError::protocol("shared array does not cover its indices")),
            }
        }
        4 => {
            let indices: Arc<[u32]> = cur.u32s()?.into();
            let needs = needs(&indices);
            let dict = remembered_dict(4, needs)?;
            written.push(Written::Indices { indices: indices.clone(), needs, remembered: true });
            (Array::Dict { indices, dict }, None)
        }
        5 => {
            let ordinal = cur.u32()? as usize;
            let Some(Written::Indices { indices, needs, remembered: true }) = written.get(ordinal)
            else {
                return Err(ServiceError::protocol(format!(
                    "shared remembered array refers to ordinal {ordinal}, which is no encoding 4"
                )));
            };
            (Array::Dict { indices: indices.clone(), dict: remembered_dict(5, *needs)? }, None)
        }
        other => return Err(ServiceError::protocol(format!("unknown array encoding tag {other}"))),
    };
    Ok((Arc::new(array), sent))
}

/// The dictionary or run values inside an encoded array: always plain, so a frame cannot nest
/// encodings (and the decoder cannot recurse) beyond one level.
fn decode_inner(cur: &mut Cursor<'_>) -> Result<Array, ServiceError> {
    match cur.u8()? {
        0 => decode_plain(cur),
        other => Err(ServiceError::protocol(format!(
            "encoding tag {other} inside an encoded array (its inner array must be plain)"
        ))),
    }
}

fn decode_validity(cur: &mut Cursor<'_>, len: usize) -> Result<Bitmap, ServiceError> {
    let bytes = cur.take(len.div_ceil(8))?;
    Ok((0..len).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
}

fn decode_plain(cur: &mut Cursor<'_>) -> Result<Array, ServiceError> {
    let type_tag = cur.u8()?;
    let len = cur.u32()? as usize;
    Ok(match type_tag {
        0 => {
            let validity = decode_validity(cur, len)?;
            let bytes = cur.take(len.div_ceil(8))?;
            let values = (0..len).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect();
            Array::Bool { values, validity }
        }
        1 => {
            let validity = decode_validity(cur, len)?;
            let mut values = Vec::with_capacity(len.min(cur.remaining() / 8));
            for _ in 0..len {
                values.push(cur.i64()?);
            }
            Array::Int { values, validity }
        }
        2 => {
            let validity = decode_validity(cur, len)?;
            let mut values = Vec::with_capacity(len.min(cur.remaining() / 8));
            for _ in 0..len {
                values.push(f64::from_bits(cur.u64()?));
            }
            Array::Float { values, validity }
        }
        3 => {
            let validity = decode_validity(cur, len)?;
            // One buffer for the column, sized by a first pass over the lengths. Every value's
            // slice is validated on its own: the buffer as a whole could be valid UTF-8 with a
            // value boundary inside a sequence.
            let values = cur.pos;
            let mut total = 0usize;
            for _ in 0..len {
                let text_len = cur.u32()? as usize;
                total += cur.take(text_len)?.len();
            }
            if u32::try_from(total).is_err() {
                return Err(ServiceError::protocol("text column exceeds 4 GiB"));
            }
            cur.pos = values;
            let mut offsets = Vec::with_capacity(len + 1);
            let mut bytes = Vec::with_capacity(total);
            offsets.push(0);
            for _ in 0..len {
                let text_len = cur.u32()? as usize;
                let text = std::str::from_utf8(cur.take(text_len)?)
                    .map_err(|_| ServiceError::protocol("text value is not valid UTF-8"))?;
                bytes.extend_from_slice(text.as_bytes());
                offsets.push(bytes.len() as u32);
            }
            Array::Text { offsets, bytes, validity }
        }
        4 => {
            let validity = decode_validity(cur, len)?;
            let mut values = Vec::with_capacity(len.min(cur.remaining() / 4));
            for _ in 0..len {
                values.push(cur.i32()?);
            }
            Array::Date { values, validity }
        }
        5 => Array::Null { len },
        other => return Err(ServiceError::protocol(format!("unknown array type tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::Value;

    fn round_trip(chunk: &DataChunk) -> DataChunk {
        let bytes = encode_chunk(chunk);
        assert_eq!(bytes[0], tag::RESULT);
        decode_chunk(&bytes[1..]).unwrap()
    }

    #[test]
    fn schema_round_trips() {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Text),
            ("price", DataType::Float),
            ("since", DataType::Date),
            ("flag", DataType::Bool),
            ("nothing", DataType::Null),
        ]);
        let bytes = encode_schema(&schema);
        assert_eq!(bytes[0], tag::SCHEMA);
        let decoded = decode_schema(&bytes[1..]).unwrap();
        assert_eq!(decoded.arity(), schema.arity());
        for (a, b) in decoded.attributes().iter().zip(schema.attributes()) {
            assert_eq!((&a.name, a.data_type), (&b.name, b.data_type));
        }
    }

    #[test]
    fn plain_chunks_round_trip_bit_identically() {
        let chunk = DataChunk::new(vec![
            Arc::new(
                Array::from_values([Value::Int(1), Value::Null, Value::Int(-7)].into_iter())
                    .unwrap(),
            ),
            Arc::new(
                Array::from_values([Value::text("a"), Value::text(""), Value::Null].into_iter())
                    .unwrap(),
            ),
            Arc::new(
                Array::from_values(
                    [Value::Float(1.5), Value::Float(f64::NAN), Value::Null].into_iter(),
                )
                .unwrap(),
            ),
            Arc::new(
                Array::from_values(
                    [Value::Bool(true), Value::Null, Value::Bool(false)].into_iter(),
                )
                .unwrap(),
            ),
            Arc::new(
                Array::from_values([Value::Date(0), Value::Date(-400), Value::Null].into_iter())
                    .unwrap(),
            ),
            Arc::new(Array::Null { len: 3 }),
        ]);
        let decoded = round_trip(&chunk);
        // NaN defeats PartialEq; compare everything but the float column logically and the
        // float column bitwise.
        for c in [0usize, 1, 3, 4, 5] {
            assert_eq!(decoded.column(c), chunk.column(c), "column {c}");
        }
        match (decoded.column(2).as_ref(), chunk.column(2).as_ref()) {
            (
                Array::Float { values: d, validity: dv },
                Array::Float { values: o, validity: ov },
            ) => {
                assert_eq!(dv, ov);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(d), bits(o));
            }
            other => panic!("expected float columns, got {other:?}"),
        }
    }

    #[test]
    fn dict_views_ship_factorized_and_compacted() {
        // 6 rows over a 5-row dictionary of which only 2 rows are referenced: the frame must
        // stay dictionary-encoded and carry exactly the 2 referenced dictionary rows.
        let dict = Arc::new(
            Array::from_values((0..5).map(|i| Value::text(format!("payload-{i}").as_str())))
                .unwrap(),
        );
        let view = Array::Dict { indices: vec![3, 1, 3, 1, 1, 3].into(), dict };
        let chunk = DataChunk::new(vec![Arc::new(view.clone())]);
        let bytes = encode_chunk(&chunk);
        let decoded = decode_chunk(&bytes[1..]).unwrap();
        match decoded.column(0).as_ref() {
            Array::Dict { dict, .. } => assert_eq!(dict.len(), 2, "dictionary is compacted"),
            other => panic!("expected a dict column on the wire, got {other:?}"),
        }
        assert_eq!(decoded.column(0).as_ref(), &view, "logical content survives");
    }

    #[test]
    fn unique_dict_views_degrade_to_plain() {
        // Every row distinct: the dictionary saves nothing, so the wire form is plain.
        let dict = Arc::new(Array::from_values((0..4).map(Value::Int)).unwrap());
        let view = Array::Dict { indices: vec![2, 0, 3, 1].into(), dict };
        let chunk = DataChunk::new(vec![Arc::new(view.clone())]);
        let bytes = encode_chunk(&chunk);
        let decoded = decode_chunk(&bytes[1..]).unwrap();
        assert!(!decoded.column(0).is_encoded());
        assert_eq!(decoded.column(0).as_ref(), &view);
    }

    #[test]
    fn constant_columns_run_length_compress_on_the_wire() {
        let array = Array::from_values(std::iter::repeat_n(Value::Int(42), 1000)).unwrap();
        let chunk = DataChunk::new(vec![Arc::new(array.clone())]);
        let bytes = encode_chunk(&chunk);
        assert!(bytes.len() < 100, "1000 constant ints must compress, got {} bytes", bytes.len());
        let decoded = decode_chunk(&bytes[1..]).unwrap();
        assert!(matches!(decoded.column(0).as_ref(), Array::RunLength { .. }));
        assert_eq!(decoded.column(0).as_ref(), &array);
        // A filter's view of it, every index distinct, goes out as its decoded rows do.
        let filtered = chunk.filter(&(0..1000).map(|i| i % 3 != 0).collect::<Vec<_>>());
        assert!(filtered.column(0).is_encoded());
        assert_eq!(encode_chunk(&filtered), encode_chunk(&filtered.to_plain()));
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked_on() {
        assert!(decode_chunk(&[]).is_err());
        assert!(decode_schema(&[0, 3, 0, 1]).is_err());
        assert!(decode_done(&[1, 2, 3]).is_err());
        // Dict index out of bounds.
        let dict = Arc::new(Array::from_values((0..2).map(Value::Int)).unwrap());
        let chunk =
            DataChunk::new(vec![Arc::new(Array::Dict { indices: vec![0, 1, 0].into(), dict })]);
        let mut bytes = encode_chunk(&chunk);
        // Corrupt the first dictionary index to a huge value.
        let idx_pos = 1 + 4 + 2 + 1 + 4; // tag, rows, ncols, enc tag, index count
        bytes[idx_pos..idx_pos + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_chunk(&bytes[1..]).is_err());
    }

    /// A frame header for one plain text column of `values` rows, no NULLs.
    fn text_frame(values: &[&[u8]]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&(values.len() as u32).to_be_bytes()); // rows
        body.extend_from_slice(&1u16.to_be_bytes()); // columns
        body.extend_from_slice(&[0, 3]); // plain, text
        body.extend_from_slice(&(values.len() as u32).to_be_bytes());
        body.extend(std::iter::repeat_n(0xff, values.len().div_ceil(8))); // validity
        for value in values {
            body.extend_from_slice(&(value.len() as u32).to_be_bytes());
            body.extend_from_slice(value);
        }
        body
    }

    #[test]
    fn a_text_column_decodes_into_one_buffer_with_every_value_validated() {
        let decoded = decode_chunk(&text_frame(&["é".as_bytes(), b"", "🐢x".as_bytes()])).unwrap();
        match decoded.column(0).as_ref() {
            Array::Text { offsets, bytes, .. } => {
                assert_eq!(offsets, &[0, 2, 2, 7]);
                assert_eq!(bytes, "é🐢x".as_bytes());
            }
            other => panic!("expected a text column, got {other:?}"),
        }
        assert_eq!(decoded.column(0).value(2), Value::text("🐢x"));
        // "é" is C3 A9: one value ending inside the sequence and the next starting there. The
        // column's bytes end to end are valid UTF-8; neither value is.
        let split = text_frame(&[&[b'a', 0xC3], &[0xA9, b'b']]);
        let error = decode_chunk(&split).unwrap_err().to_string();
        assert!(error.contains("not valid UTF-8"), "{error}");
    }

    #[test]
    fn a_text_column_cannot_claim_more_than_its_frame_carries() {
        // A value length far beyond the frame: a truncation error, and no allocation sized by
        // the claim. A frame is at most `MAX_FRAME_LEN` bytes, so no decoded column comes
        // near what its 32-bit offsets address.
        let mut frame = text_frame(&[b"abc"]);
        let len_pos = frame.len() - 3 - 4;
        frame[len_pos..len_pos + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let error = decode_chunk(&frame).unwrap_err().to_string();
        assert!(error.contains("truncated"), "{error}");
        assert!(u32::try_from(crate::wire::MAX_FRAME_LEN).is_ok());
    }
}
