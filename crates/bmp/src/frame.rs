//! Incremental BMP framing for a TCP byte stream.

use crate::wire::{parse_common_header, BmpError, RawBmpMessage, COMMON_HEADER_LEN};

/// Reassembles framed BMP messages from arbitrarily chunked reads.
///
/// A socket reader pushes whatever `read()` returned via
/// [`FrameAssembler::push`] and then pulls every complete message with
/// [`FrameAssembler::next_message`]; partial frames stay buffered
/// until their remaining bytes arrive. Corrupt framing (wrong version,
/// impossible length) is **sticky**: the assembler fuses, the same
/// error is returned on every later call, and the connection should be
/// dropped — once a length field cannot be trusted there is no
/// in-stream way to find the next boundary.
///
/// Memory is bounded by construction: buffered bytes never exceed one
/// maximum message ([`crate::wire::MAX_BMP_MESSAGE_LEN`]) plus the largest chunk
/// ever pushed, because complete frames are consumed eagerly and a
/// length field beyond the maximum fuses instead of waiting.
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted away on `push`).
    start: usize,
    /// Total bytes consumed over the assembler's lifetime, for
    /// diagnostics offsets.
    consumed: u64,
    /// Terminal framing error, if the stream turned out corrupt.
    fused: Option<BmpError>,
}

impl Default for FrameAssembler {
    fn default() -> Self {
        FrameAssembler::new()
    }
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler {
            buf: Vec::new(),
            start: 0,
            consumed: 0,
            fused: None,
        }
    }

    /// Append one chunk of received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.fused.is_some() {
            return; // corrupt stream: no point buffering more
        }
        // Compact consumed frames away before growing the buffer, so
        // buffered memory tracks the *unconsumed* tail only.
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True once the assembler hit unrecoverable framing corruption.
    pub fn is_fused(&self) -> bool {
        self.fused.is_some()
    }

    /// The next complete message, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes". `Err` is sticky (see type
    /// docs): the stream is corrupt and should be closed.
    pub fn next_message(&mut self) -> Result<Option<RawBmpMessage<'_>>, BmpError> {
        if let Some(e) = &self.fused {
            return Err(e.clone());
        }
        let tail = &self.buf[self.start..];
        let (len, msg_type) = match parse_common_header(tail) {
            Ok(Some(header)) => header,
            Ok(None) => return Ok(None),
            Err(e) => return self.fuse(e),
        };
        if tail.len() < len {
            return Ok(None);
        }
        let offset = self.consumed;
        let body_start = self.start + COMMON_HEADER_LEN;
        let body_end = self.start + len;
        self.start += len;
        self.consumed += len as u64;
        Ok(Some(RawBmpMessage {
            offset,
            msg_type,
            body: &self.buf[body_start..body_end],
        }))
    }

    fn fuse(&mut self, error: BmpError) -> Result<Option<RawBmpMessage<'_>>, BmpError> {
        self.buf.clear();
        self.start = 0;
        self.fused = Some(error.clone());
        Err(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BmpMessage, BmpWriter, InfoTlv, MAX_BMP_MESSAGE_LEN};

    fn framed(n: usize) -> Vec<u8> {
        let mut w = BmpWriter::new();
        for i in 0..n {
            w.write(&BmpMessage::Initiation {
                info: vec![InfoTlv::string(2, &format!("collector-{i}"))],
            })
            .unwrap();
        }
        w.into_bytes()
    }

    #[test]
    fn reassembles_across_arbitrary_chunking() {
        let bytes = framed(5);
        // Every chunk size from pathological (1 byte) to everything.
        for chunk in [1, 2, 3, 7, bytes.len()] {
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            for part in bytes.chunks(chunk) {
                asm.push(part);
                while let Some(raw) = asm.next_message().unwrap() {
                    got.push(raw.decode().unwrap());
                }
            }
            assert_eq!(got.len(), 5, "chunk={chunk}");
            assert_eq!(asm.buffered(), 0, "chunk={chunk}");
        }
    }

    #[test]
    fn partial_frame_waits_for_more_bytes() {
        let bytes = framed(1);
        let mut asm = FrameAssembler::new();
        asm.push(&bytes[..bytes.len() - 1]);
        assert!(asm.next_message().unwrap().is_none());
        asm.push(&bytes[bytes.len() - 1..]);
        assert!(asm.next_message().unwrap().is_some());
        assert!(asm.next_message().unwrap().is_none());
    }

    #[test]
    fn corrupt_framing_is_sticky_and_clears_the_buffer() {
        let mut asm = FrameAssembler::new();
        let mut bytes = framed(1);
        bytes[0] = 9; // wrong version
        asm.push(&bytes);
        assert!(matches!(
            asm.next_message().unwrap_err(),
            BmpError::BadVersion(9)
        ));
        assert!(asm.is_fused());
        assert_eq!(asm.buffered(), 0);
        // Later pushes are ignored and the error repeats: the caller
        // must drop the connection, not retry forever.
        asm.push(&framed(1));
        assert!(matches!(
            asm.next_message().unwrap_err(),
            BmpError::BadVersion(9)
        ));
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn oversized_length_field_fuses_instead_of_buffering() {
        let mut asm = FrameAssembler::new();
        let mut hdr = vec![3u8];
        hdr.extend_from_slice(&(MAX_BMP_MESSAGE_LEN as u32 + 1).to_be_bytes());
        hdr.push(0);
        asm.push(&hdr);
        assert!(matches!(
            asm.next_message().unwrap_err(),
            BmpError::BadLength(_)
        ));
        assert!(asm.is_fused());
    }

    #[test]
    fn offsets_count_the_whole_stream() {
        let bytes = framed(3);
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        let mut offsets = Vec::new();
        while let Some(raw) = asm.next_message().unwrap() {
            offsets.push(raw.offset);
        }
        assert_eq!(offsets.len(), 3);
        assert_eq!(offsets[0], 0);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
    }
}
