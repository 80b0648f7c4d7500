//! EVM-lite: a 64-bit stack machine whose side effects are the call edges
//! of the blockchain graph.
//!
//! The real EVM is a 256-bit machine with ~140 opcodes; the paper only
//! cares about *which accounts and contracts interact*. This VM keeps the
//! parts that shape the graph — value transfers, inter-contract calls,
//! contract creation, per-contract key/value storage, gas metering — and
//! drops everything else (memory, precompiles, 256-bit arithmetic).
//!
//! Contracts run their template's static list of [`Op`]s
//! ([`ContractTemplate::program`](crate::ContractTemplate::program)); executing a
//! transaction returns a [`Receipt`](crate::Receipt) whose
//! [`CallRecord`](crate::CallRecord)s become graph edges.

mod gas;
mod opcode;
mod vm;

pub use gas::GasSchedule;
pub use opcode::Op;
pub use vm::{ExecContext, Vm, VmBuffers, VmError, CALL_DEPTH_LIMIT, STACK_LIMIT};
