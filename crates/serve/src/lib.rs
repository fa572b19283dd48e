//! Sharded multi-tenant serving layer over ADAPT engines.
//!
//! PR 1–8 built a storage *engine*: one [`Lss`](adapt_lss::Lss) owning
//! one array, driven synchronously by one caller. This crate is the
//! *serving* layer a multi-volume deployment needs on top:
//!
//! - **Sharding** ([`router`]): every registered volume's address space
//!   is hash-partitioned in fixed LBA ranges onto N independent shards.
//!   Each shard owns a full ADAPT stack — engine, array, optional WAL —
//!   and a dedicated drain thread, so shards share *nothing* and
//!   aggregate throughput scales with shard count.
//! - **Async submission** ([`api`], [`server`]): [`Client::submit`]
//!   validates, routes, and enqueues in O(1) without blocking, returning
//!   a [`Ticket`]; [`Client::wait`] redeems it for a [`Completion`].
//!   Backpressure is *typed, not blocking*: a full shard queue returns
//!   [`SubmitError::Busy`], an over-budget tenant
//!   [`SubmitError::TenantThrottled`] — both retryable by contract
//!   ([`Retryable`](adapt_lss::Retryable)).
//! - **Group-commit durability** ([`shard`]): writes complete only once
//!   a WAL barrier covers them, batched by a configurable window, so an
//!   acked write survives power loss (the crash harness in `adapt-sim`
//!   drives this end to end).
//! - **Tenant QoS** ([`qos`]): token-bucket weighted fair admission on a
//!   deterministic op clock.
//! - **Deterministic replay** (ordered mode): with pre-assigned per-shard
//!   sequence numbers, per-shard engine state — and hence merged
//!   telemetry — is bit-identical at *any* client-thread count.
//!
//! ```
//! use adapt_serve::{Request, ServerBuilder};
//! # use adapt_array::CountingArray;
//! # use adapt_lss::Lss;
//! # use adapt_placement::SepGc;
//! let server = ServerBuilder::new()
//!     .shards(2)
//!     .volume(0, 16 * 1024)
//!     .range_blocks(1024)
//!     .start(|plan| {
//!         let sink = CountingArray::new(plan.lss.array_config());
//!         Box::new(Lss::builder(SepGc::new(), sink).config(plan.lss).build())
//!     });
//! let client = server.client();
//! let ticket = client.submit(Request::write(0, 0, 42, 8)).unwrap();
//! let done = client.wait(ticket);
//! assert!(done.result.is_ok());
//! let report = server.shutdown();
//! assert!(report.balanced());
//! ```

pub mod api;
pub mod qos;
pub mod router;
pub mod server;
pub mod shard;
mod spin;

pub use api::{Completion, OpKind, Request, ServeError, SubmitError, TenantId, Ticket, VolumeId};
pub use qos::{QosConfig, TenantGovernor};
pub use router::{Routed, ShardRouter, VolumeSpec};
pub use server::{Client, ServeReport, Server, ServerBuilder, ShardPlan};
pub use shard::{ShardEngine, ShardReport, ShardStatsSnapshot};
pub use spin::SPIN_NS;
