//! Packets exchanged between machines, and their wire encoding.
//!
//! The in-process channel backend moves [`Packet`] values directly; the
//! socket mesh frames the same values with
//! [`Packet::encode_frame_append`] and the lossy fabric with
//! [`Packet::encode_body`], both read back by [`Packet::decode_body`].
//! Wire *statistics* are accounted from
//! [`Packet::wire_bytes`] before the backend is invoked, so byte
//! counters are identical across backends by construction.

use corm_wire::{MessageReader, WireError};

/// A network packet. Payloads are serialized messages produced by
/// corm-codegen; the transport treats them as opaque bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// An RMI request: invoke `site`'s target method on `target_obj`.
    Request {
        /// Reply routing key, unique per (machine, outstanding call).
        req_id: u64,
        /// Requesting machine (reply destination).
        from: u16,
        /// Call site id — selects the per-call-site unmarshaler.
        site: u32,
        /// The remote object the method is invoked on.
        target_obj: u32,
        /// Serialized arguments.
        payload: Vec<u8>,
        /// One-way (`spawn`) request: no reply is sent.
        oneway: bool,
    },
    /// Reply carrying the serialized return value (empty for acks).
    Reply {
        req_id: u64,
        payload: Vec<u8>,
        /// Remote exception text, if the invocation failed.
        err: Option<String>,
    },
    /// Request to instantiate a remote object of `class` on the receiver.
    /// Replies with a `Reply` whose payload is the new object id.
    NewRemote { req_id: u64, from: u16, class: u32 },
    /// Orderly shutdown of the receive loop.
    Shutdown,
    /// Transport-level notification: the connection to `peer` dropped
    /// outside an orderly shutdown. Synthesized by the receiving
    /// backend, never sent by the VM; lets the drain loop distinguish a
    /// crashed peer from an empty queue.
    PeerGone { peer: u16 },
}

const TAG_REQUEST: u8 = 0;
const TAG_REPLY: u8 = 1;
const TAG_NEW_REMOTE: u8 = 2;
const TAG_SHUTDOWN: u8 = 3;
const TAG_PEER_GONE: u8 = 4;

/// Upper bound on an encoded frame body. Receivers reject anything
/// larger as a corrupt stream, so the encoder refuses to produce such a
/// frame in the first place — otherwise an oversized payload would be
/// reported at the *peer* as a torn connection instead of at the sender
/// as a clean [`WireError`].
pub const MAX_FRAME: usize = 1 << 30;

/// Checked length-field narrowing: every variable-length field in the
/// frame header is a `u32`, and a silent `as u32` on a larger length
/// would truncate the header and desynchronize the stream. `offset` is
/// the byte position the field would occupy in the frame body, matching
/// the decoder's underflow diagnostics.
fn len_u32(len: usize, what: &str, offset: usize) -> Result<u32, WireError> {
    u32::try_from(len).map_err(|_| {
        WireError(format!("{what} length {len} overflows the u32 length field at byte {offset}"))
    })
}

impl Packet {
    /// Payload bytes that count toward wire statistics.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Packet::Request { payload, .. } | Packet::Reply { payload, .. } => {
                // 16 bytes of envelope (ids) + payload
                16 + payload.len() as u64
            }
            Packet::NewRemote { .. } => 16,
            Packet::Shutdown | Packet::PeerGone { .. } => 0,
        }
    }

    /// `Shutdown` and `PeerGone` are harness control, not cluster
    /// traffic: they cost nothing on the wire, are never filtered as a
    /// dead machine's traffic, and are exempt from injected faults.
    pub(crate) fn is_control(&self) -> bool {
        matches!(self, Packet::Shutdown | Packet::PeerGone { .. })
    }

    /// Append one *complete* frame to `out` without clearing it: a 4-byte
    /// little-endian length prefix (the length of the body that
    /// follows), then the body — an 8-byte send timestamp (nanoseconds
    /// on the transport's clock, for measured wire time), a tag byte,
    /// the fields in little-endian order ending with the payload length,
    /// and the payload. This is the one encoder: the socket mesh appends
    /// frames to a per-connection outbound buffer (several of them when
    /// a full socket left some queued), and [`Packet::encode_body`]
    /// is this frame minus its prefix.
    ///
    /// Fails with a [`WireError`] naming the offending field and its
    /// frame offset when a length does not fit its `u32` header field
    /// or the body would exceed [`MAX_FRAME`]. On an error `out` is left
    /// exactly as it was — no partial frame leaks behind the queued ones.
    pub fn encode_frame_append(&self, ts_ns: u64, out: &mut Vec<u8>) -> Result<(), WireError> {
        let start = out.len();
        let appended = self.append_frame(ts_ns, out, start);
        if appended.is_err() {
            out.truncate(start);
        }
        appended
    }

    /// Append the frame at `start == out.len()`, backpatching the prefix.
    /// Length fields are narrowed with [`len_u32`]; offsets in the
    /// diagnostics are relative to the frame body, like the decoder's.
    fn append_frame(&self, ts_ns: u64, out: &mut Vec<u8>, start: usize) -> Result<(), WireError> {
        out.extend_from_slice(&[0u8; 4]); // length prefix, backpatched below
        out.extend_from_slice(&ts_ns.to_le_bytes());
        // Offset of the next byte within the frame body (prefix excluded).
        let body_at = |out: &Vec<u8>| out.len() - start - 4;
        let payload: &[u8] = match self {
            Packet::Request { req_id, from, site, target_obj, payload, oneway } => {
                out.push(TAG_REQUEST);
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&site.to_le_bytes());
                out.extend_from_slice(&target_obj.to_le_bytes());
                out.push(*oneway as u8);
                let len = len_u32(payload.len(), "request payload", body_at(out))?;
                out.extend_from_slice(&len.to_le_bytes());
                payload
            }
            Packet::Reply { req_id, payload, err } => {
                out.push(TAG_REPLY);
                out.extend_from_slice(&req_id.to_le_bytes());
                match err {
                    Some(e) => {
                        out.push(1);
                        let len = len_u32(e.len(), "reply error text", body_at(out))?;
                        out.extend_from_slice(&len.to_le_bytes());
                        out.extend_from_slice(e.as_bytes());
                    }
                    None => out.push(0),
                }
                let len = len_u32(payload.len(), "reply payload", body_at(out))?;
                out.extend_from_slice(&len.to_le_bytes());
                payload
            }
            Packet::NewRemote { req_id, from, class } => {
                out.push(TAG_NEW_REMOTE);
                out.extend_from_slice(&req_id.to_le_bytes());
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&class.to_le_bytes());
                &[]
            }
            Packet::Shutdown => {
                out.push(TAG_SHUTDOWN);
                &[]
            }
            Packet::PeerGone { peer } => {
                out.push(TAG_PEER_GONE);
                out.extend_from_slice(&peer.to_le_bytes());
                &[]
            }
        };
        let body_len = body_at(out) + payload.len();
        if body_len > MAX_FRAME {
            return Err(WireError(format!(
                "frame body of {body_len} bytes exceeds MAX_FRAME ({MAX_FRAME}); \
                 receivers would reject it as a corrupt stream"
            )));
        }
        let body_len = len_u32(body_len, "frame body", 0)?;
        out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Encode as an unprefixed frame body (timestamp, tag, fields,
    /// payload) in one contiguous buffer: the frame of
    /// [`Packet::encode_frame_append`] with its prefix cut off, so the
    /// two encodings cannot drift.
    pub fn encode_body(&self, ts_ns: u64) -> Result<Vec<u8>, WireError> {
        let mut frame = Vec::with_capacity(36 + self.wire_bytes() as usize);
        self.encode_frame_append(ts_ns, &mut frame)?;
        frame.drain(..4);
        Ok(frame)
    }

    /// Decode a frame body produced by [`Packet::encode_body`]. Returns
    /// the packet and the sender's timestamp. Every failure — a short
    /// field, an unknown tag, trailing bytes — names its byte offset.
    pub fn decode_body(buf: &[u8]) -> Result<(Packet, u64), WireError> {
        let mut r = MessageReader::new(buf);
        let ts_ns = r.read_u64()?;
        // Struct fields are evaluated in the order written: wire order.
        let packet = match r.read_u8()? {
            TAG_REQUEST => Packet::Request {
                req_id: r.read_u64()?,
                from: r.read_u16()?,
                site: r.read_u32()?,
                target_obj: r.read_u32()?,
                oneway: r.read_bool()?,
                payload: r.read_bytes()?.to_vec(),
            },
            TAG_REPLY => Packet::Reply {
                req_id: r.read_u64()?,
                err: if r.read_bool()? {
                    Some(String::from_utf8_lossy(r.read_bytes()?).into_owned())
                } else {
                    None
                },
                payload: r.read_bytes()?.to_vec(),
            },
            TAG_NEW_REMOTE => Packet::NewRemote {
                req_id: r.read_u64()?,
                from: r.read_u16()?,
                class: r.read_u32()?,
            },
            TAG_SHUTDOWN => Packet::Shutdown,
            TAG_PEER_GONE => Packet::PeerGone { peer: r.read_u16()? },
            t => return Err(WireError(format!("unknown packet tag {t} at byte {}", r.pos() - 1))),
        };
        if !r.is_exhausted() {
            return Err(WireError(format!(
                "{} trailing bytes after packet at byte {}",
                r.remaining(),
                r.pos()
            )));
        }
        Ok((packet, ts_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_coalesce_split_back_and_roundtrip() {
        let packets = [
            Packet::Request {
                req_id: (3u64 << 48) + 9,
                from: 2,
                site: 17,
                target_obj: 4,
                payload: vec![1, 2, 3, 0, 255],
                oneway: true,
            },
            Packet::Reply { req_id: 7, payload: vec![9; 100], err: None },
            Packet::Reply { req_id: 8, payload: Vec::new(), err: Some("boom: äöü".into()) },
            Packet::Reply { req_id: 5, payload: vec![1, 2, 3], err: Some("kaput".into()) },
            Packet::NewRemote { req_id: 1, from: 0, class: 12 },
            Packet::Shutdown,
            Packet::PeerGone { peer: 3 },
        ];
        // Batch them all into one buffer, as the mesh's outbound queue
        // does behind a full socket, then walk the length prefixes back out.
        let mut batch = Vec::new();
        for p in &packets {
            p.encode_frame_append(123_456_789, &mut batch).unwrap();
        }
        let mut pos = 0;
        for p in &packets {
            let len = u32::from_le_bytes(batch[pos..pos + 4].try_into().unwrap()) as usize;
            let body = &batch[pos + 4..pos + 4 + len];
            assert_eq!(body, p.encode_body(123_456_789).unwrap(), "a body is a frame minus prefix");
            let (q, ts) = Packet::decode_body(body).unwrap();
            assert_eq!(&q, p);
            assert_eq!(ts, 123_456_789);
            pos += 4 + len;
        }
        assert_eq!(pos, batch.len(), "no stray bytes between coalesced frames");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Packet::decode_body(&[]).is_err());
        assert!(Packet::decode_body(&[0; 9]).is_err()); // truncated request

        // A short frame fails at the offset of the field it cuts: the
        // request's payload starts at byte 32, the reply's (after its
        // 5-byte error text) at byte 31.
        let request = Packet::Request {
            req_id: 1,
            from: 2,
            site: 3,
            target_obj: 4,
            payload: vec![7; 5],
            oneway: false,
        };
        let body = request.encode_body(0).unwrap();
        let err = Packet::decode_body(&body[..body.len() - 2]).unwrap_err();
        assert_eq!(err.0, "underflow at byte 32/35: need 5 bytes, have 3");
        let reply = Packet::Reply { req_id: 5, payload: vec![9; 100], err: Some("kaput".into()) };
        let body = reply.encode_body(0).unwrap();
        let err = Packet::decode_body(&body[..body.len() - 1]).unwrap_err();
        assert_eq!(err.0, "underflow at byte 31/130: need 100 bytes, have 99");
        let mut body = Packet::Shutdown.encode_body(0).unwrap();
        body[8] = 99; // unknown tag
        assert!(Packet::decode_body(&body).is_err());
        let mut body = Packet::PeerGone { peer: 1 }.encode_body(0).unwrap();
        body.push(0); // trailing byte
        assert!(Packet::decode_body(&body).is_err());
    }

    #[test]
    fn oversized_payload_fails_cleanly_instead_of_truncating_the_header() {
        // A payload over MAX_FRAME used to be narrowed with a silent
        // `as u32`, producing a frame whose length prefix lied about the
        // bytes that followed — the *peer* then saw a corrupt stream.
        // The encoder now refuses at the sender with the field named.
        let p = Packet::Request {
            req_id: 1,
            from: 0,
            site: 0,
            target_obj: 0,
            payload: vec![0; MAX_FRAME + 1],
            oneway: false,
        };
        let err = p.encode_body(0).unwrap_err();
        assert!(err.0.contains("MAX_FRAME"), "names the bound: {err}");

        // A batch buffer stays byte-identical on failure: no partial
        // frame desynchronizes the frames already coalesced before it.
        let mut batch = Vec::new();
        Packet::Shutdown.encode_frame_append(7, &mut batch).unwrap();
        let before = batch.clone();
        assert!(p.encode_frame_append(7, &mut batch).is_err());
        assert_eq!(batch, before, "failed append must not leak partial bytes");

        // Exactly at the boundary the frame still encodes: the limit is
        // on the body (header + payload), not the payload alone.
        let at_edge = Packet::Reply { req_id: 2, payload: vec![0; 4096], err: None };
        assert!(at_edge.encode_body(0).is_ok());
    }

    #[test]
    fn wire_bytes_ignore_framing() {
        // The stats envelope model (16 bytes + payload) is independent of
        // the actual frame encoding, so counters match across backends.
        let p = Packet::Reply { req_id: 1, payload: vec![0; 1000], err: None };
        assert_eq!(p.wire_bytes(), 1016);
        assert_eq!(Packet::PeerGone { peer: 0 }.wire_bytes(), 0);
    }
}
