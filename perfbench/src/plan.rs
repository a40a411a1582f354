//! Planned data-plane ops and the shadow memory that checks their results.
//!
//! Op streams are generated up front from the seed, so the timed loops do
//! no input generation and every rung of the layer ladder can replay the
//! very same ops.

use std::time::Instant;

use vbi_core::ops::{Op, OpOutput, OpResult, VbHandle};
use vbi_core::{ClientId, Result, VbiAddress};

use crate::measure::ns_since;

pub const PAGE: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Load,
    Store,
    LoadSpan,
    StoreSpan,
}

/// One data-plane op against a VB of the issuing thread.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub kind: Kind,
    /// Index into the thread's VB handles.
    pub vb: u16,
    pub offset: u32,
    /// Span length in bytes (span kinds only).
    pub len: u32,
    /// The value a `Store` writes; the pattern seed of a `StoreSpan`.
    pub value: u64,
}

impl Planned {
    pub fn is_store(&self) -> bool {
        matches!(self.kind, Kind::Store | Kind::StoreSpan)
    }

    pub fn bytes(&self) -> u64 {
        match self.kind {
            Kind::Load | Kind::Store => 8,
            Kind::LoadSpan | Kind::StoreSpan => u64::from(self.len),
        }
    }

    /// The bytes a `StoreSpan` writes (empty for other kinds).
    pub fn span_data(&self) -> Vec<u8> {
        if self.kind != Kind::StoreSpan {
            return Vec::new();
        }
        let mut x = self.value;
        (0..self.len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The engine op for this plan, issued by `client` through `handle`.
    pub fn op(&self, client: ClientId, handle: &VbHandle, data: Vec<u8>) -> Op {
        let va = handle.at(u64::from(self.offset));
        match self.kind {
            Kind::Load => Op::LoadU64 { client, va },
            Kind::Store => Op::StoreU64 { client, va, value: self.value },
            Kind::LoadSpan => Op::LoadBytes { client, va, len: self.len as usize },
            Kind::StoreSpan => Op::StoreBytes { client, va, data },
        }
    }

    /// The VBI address the op touches first.
    pub fn address(&self, handle: &VbHandle) -> VbiAddress {
        handle.vbuid.address(u64::from(self.offset)).expect("planned offsets stay inside the VB")
    }
}

/// What a layer answered for one op, reduced to what the shadow checks.
#[derive(Debug)]
pub enum Outcome {
    Value(u64),
    Bytes(Vec<u8>),
    Done,
    Failed,
}

impl Outcome {
    pub fn from_result(result: OpResult) -> Self {
        match result {
            Ok(OpOutput::U64(v)) => Outcome::Value(v),
            Ok(OpOutput::Bytes(b)) => Outcome::Bytes(b),
            Ok(_) => Outcome::Done,
            Err(_) => Outcome::Failed,
        }
    }

    pub fn from_u64(result: Result<u64>) -> Self {
        result.map_or(Outcome::Failed, Outcome::Value)
    }

    pub fn from_bytes(result: Result<Vec<u8>>) -> Self {
        result.map_or(Outcome::Failed, Outcome::Bytes)
    }

    pub fn from_unit(result: Result<()>) -> Self {
        result.map_or(Outcome::Failed, |()| Outcome::Done)
    }

    pub fn failed(&self) -> bool {
        matches!(self, Outcome::Failed)
    }
}

/// What one replayed call into a layer answered: its span (ns since the
/// ladder's epoch, around the call alone), its outcome, and the rung's
/// probe counter delta.
pub struct Answer {
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Outcome,
    pub probe: u64,
}

/// Times `call` as ns since `epoch`.
pub fn timed(epoch: Instant, call: impl FnOnce() -> Outcome) -> Answer {
    let start_ns = ns_since(epoch);
    let outcome = call();
    Answer { start_ns, end_ns: ns_since(epoch), outcome, probe: 0 }
}

/// Byte-exact expected contents of one client's VBs. A store that failed
/// may have written part of its bytes, so its pages stop being checked.
#[derive(Debug, Clone)]
pub struct Shadow {
    vbs: Vec<Vec<u8>>,
    tainted: Vec<Vec<bool>>,
}

impl Shadow {
    pub fn zeroed(vb_bytes: &[u64]) -> Self {
        Self {
            vbs: vb_bytes.iter().map(|&b| vec![0u8; b as usize]).collect(),
            tainted: vb_bytes.iter().map(|&b| vec![false; b.div_ceil(PAGE) as usize]).collect(),
        }
    }

    pub fn write(&mut self, vb: usize, offset: u64, bytes: &[u8]) {
        let o = offset as usize;
        self.vbs[vb][o..o + bytes.len()].copy_from_slice(bytes);
    }

    fn taint(&mut self, vb: usize, offset: u64, len: u64) {
        for page in offset / PAGE..=(offset + len - 1) / PAGE {
            self.tainted[vb][page as usize] = true;
        }
    }

    fn expected(&self, vb: usize, offset: u64, len: u64) -> Option<&[u8]> {
        let clean =
            (offset / PAGE..=(offset + len - 1) / PAGE).all(|p| !self.tainted[vb][p as usize]);
        clean.then(|| &self.vbs[vb][offset as usize..(offset + len) as usize])
    }

    /// Checks a load's answer, or applies a store's effect. Returns `false`
    /// for a wrong value (a failed op is not a wrong value; it is counted
    /// apart).
    pub fn apply(&mut self, op: &Planned, outcome: &Outcome) -> bool {
        let (vb, offset, len) = (op.vb as usize, u64::from(op.offset), op.bytes());
        match (op.kind, outcome) {
            (_, Outcome::Failed) => {
                if op.is_store() {
                    self.taint(vb, offset, len);
                }
                true
            }
            (Kind::Store, _) => {
                self.write(vb, offset, &op.value.to_le_bytes());
                true
            }
            (Kind::StoreSpan, _) => {
                self.write(vb, offset, &op.span_data());
                true
            }
            (Kind::Load, Outcome::Value(v)) => {
                self.expected(vb, offset, len).is_none_or(|e| e == v.to_le_bytes())
            }
            (Kind::LoadSpan, Outcome::Bytes(b)) => {
                self.expected(vb, offset, len).is_none_or(|e| e == b.as_slice())
            }
            _ => false,
        }
    }
}
