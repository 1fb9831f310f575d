//! The TCP server: every connection on one thread, multiplexed over
//! readiness events (epoll on Linux x86-64, a portable scan fallback
//! elsewhere; see `poll`, crate-private). The loop scales to many
//! concurrent connections without a thread per socket, gives each
//! connection a fairness quantum (no head-of-line blocking between an
//! ingest firehose and query clients), applies backpressure to slow
//! readers via bounded per-connection write buffers, and does real
//! server-push `SUBSCRIBE` in shared mode. Its architecture is
//! documented in `event_loop` (crate-private).
//!
//! [`ServerOptions::shared`] selects the session model: per-connection
//! pipelines (every connection is an independent join — the paper's
//! single-core-per-join shape) or one **shared** pipeline all
//! connections feed and query. In shared mode queries are served from
//! the graph's published snapshot (wait-free reads, see
//! `sssj_graph::GraphSnapshot`).
//!
//! Shutdown: [`Server::shutdown`] sets a flag, wakes the loop with a
//! loopback connection, and joins its thread. In-flight requests
//! complete before connections close.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::protocol::MAX_LINE_BYTES;
use crate::session::SessionDefaults;

/// Which serving engine [`Server::bind`] starts. The event loop is the
/// only one; the enum and [`ServerOptions::engine`] stay because
/// external harnesses name them when they build a [`ServerOptions`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerEngine {
    /// One thread, readiness-multiplexed connections.
    EventLoop,
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Defaults every session starts from (overridable via `CONFIG` on
    /// per-session servers; fixed in shared mode).
    pub defaults: SessionDefaults,
    /// The event loop's maximum sleep between readiness checks (and its
    /// stall budget).
    pub poll_interval: Duration,
    /// Per-line size cap; longer lines close the connection.
    pub max_line_bytes: usize,
    /// The serving engine (see [`ServerEngine`]).
    pub engine: ServerEngine,
    /// One shared pipeline instead of per-connection sessions: every
    /// connection feeds/queries the same join, `SUBSCRIBE` is real
    /// server push, and `CONFIG` is refused.
    pub shared: bool,
    /// Per-connection bound on queued pushed updates (shared mode).
    /// Overflow drops oldest and reports one coalesced `D <n>`.
    pub push_queue_cap: usize,
    /// Per-connection write-buffer backpressure threshold (bytes): a
    /// connection whose un-flushed output exceeds this stops being read
    /// from until it drains.
    pub write_buf_cap: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            defaults: SessionDefaults::default(),
            poll_interval: Duration::from_millis(50),
            max_line_bytes: MAX_LINE_BYTES,
            engine: ServerEngine::EventLoop,
            shared: false,
            push_queue_cap: 1024,
            write_buf_cap: 256 * 1024,
        }
    }
}

/// A running join server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting, closes every connection and joins the loop thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loop_thread: Option<JoinHandle<()>>,
    started: Arc<AtomicU64>,
}

impl Server {
    /// Binds and starts serving on a background thread. Use
    /// `"127.0.0.1:0"` to let the OS pick a free port and read it back
    /// with [`Server::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, options: ServerOptions) -> io::Result<Server> {
        // A panicking server dumps its flight recorder: the last events
        // before the crash are usually the diagnosis.
        sssj_metrics::trace::install_panic_hook();
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicU64::new(0));

        let loop_stop = Arc::clone(&stop);
        let loop_started = Arc::clone(&started);
        let loop_thread = thread::Builder::new()
            .name("sssj-net-loop".into())
            .spawn(move || crate::event_loop::run(listener, options, loop_stop, loop_started))
            .expect("spawn event-loop thread");

        Ok(Server {
            addr,
            stop,
            loop_thread: Some(loop_thread),
            started,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of sessions accepted so far.
    pub fn sessions_started(&self) -> u64 {
        self.started.load(Ordering::SeqCst)
    }

    /// Stops accepting, closes every connection, and joins the loop
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake a loop blocked in its readiness wait.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}
