//! Cross-process serving and federated rounds for the SAFELOC
//! reproduction: a compact, versioned binary wire protocol plus the
//! process-separation layer on top of it.
//!
//! Everything else in the workspace runs in one process; this crate puts
//! the SAFELOC threat-model boundary where it actually sits — poisoned
//! updates arrive over a wire, not via `&mut [Client]`. Five pieces:
//!
//! * [`frame`] — the wire format: length-prefixed, tagged binary frames
//!   ([`Frame`]) with an explicit schema check ([`WIRE_SCHEMA`]) and
//!   total decoding into typed [`WireError`]s — malformed input never
//!   panics either end.
//! * [`conn`] — [`FrameConn`]: whole-frame I/O over a `TcpStream`, read
//!   deadlines, and the `Hello`/`HelloAck` handshake.
//! * [`tcp`] — the serving front: [`WireServer`] decodes localization
//!   requests into `safeloc-serve`'s micro-batch [`Service`], keeping
//!   served predictions bitwise identical to offline `predict`;
//!   [`WireClient`] is the matching client side.
//! * [`remote`] — cross-process FL, both halves: [`RemoteFleet`] +
//!   [`RemoteFlServer`] run federated rounds against client processes
//!   under a server-side deadline, and [`run_remote_client`] is the one
//!   client loop those processes run (the `fl_client` bin is argument
//!   parsing around it). The server's round and the client's training
//!   step are the in-process engine's own code, so the GM trajectory is
//!   bitwise the in-process one when fault injection is off.
//! * [`fault`] — [`FaultProfile`]: seeded latency / drop / slow-reader
//!   injection, shared between the real transport (the client loop
//!   applies draws to its socket) and the scenario-suite engine (which
//!   replays the same draws onto in-process round plans).
//!
//! [`Service`]: safeloc_serve::Service

pub mod conn;
pub mod fault;
pub mod frame;
pub mod metrics;
pub mod remote;
pub mod tcp;

pub use conn::FrameConn;
pub use fault::{FaultDraw, FaultProfile};
pub use frame::{
    DeltaUpdateFrame, Frame, UpdateFrame, WireError, ERR_MALFORMED, ERR_PROTOCOL, ERR_SCHEMA,
    ERR_SERVE, MAX_FRAME_LEN, WIRE_SCHEMA,
};
pub use metrics::{wire_metrics, WireMetrics};
pub use remote::{run_remote_client, RemoteFlServer, RemoteFleet};
pub use tcp::{WireClient, WireServer};
