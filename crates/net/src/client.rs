//! A synchronous client for the join service.
//!
//! Every request is answered before the next is sent, so the client is a
//! thin request–response wrapper: send a line, read `P` lines until the
//! terminating `OK`/`E`. Pair ids are *server-assigned* arrival ordinals
//! (0, 1, 2, … per session); [`JoinClient::records_sent`] mirrors the
//! server's counter so callers can map ids back to their own records.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sssj_types::{SimilarPair, StreamRecord};

use crate::protocol::{ConfigRequest, GraphQuery, Request, Response, SessionStats};

/// Client-side errors.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent something the client cannot parse, or closed the
    /// connection mid-response.
    Protocol(String),
    /// The server answered `E <message>`.
    Server(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// A connected session with a join server.
///
/// ```no_run
/// use sssj_net::{ConfigRequest, JoinClient};
///
/// let mut client = JoinClient::connect("127.0.0.1:7878")?;
/// client.configure(ConfigRequest {
///     theta: Some(0.7),
///     lambda: Some(0.01),
///     ..Default::default()
/// })?;
/// let pairs = client.send_vector(12.5, &[(3, 0.6), (9, 0.8)])?;
/// for p in pairs {
///     println!("records {} and {} are similar: {}", p.left, p.right, p.similarity);
/// }
/// client.quit()?;
/// # Ok::<(), sssj_net::NetError>(())
/// ```
pub struct JoinClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    records_sent: u64,
    /// Pushed `U` subscription updates collected while reading other
    /// responses; drained by [`JoinClient::take_updates`].
    updates: Vec<(u64, SimilarPair)>,
    /// Running total of updates the server reported dropping (`D` lines
    /// from its bounded push queue).
    dropped: u64,
    /// The event loop's stall count from the most recent `STATS` reply
    /// (`None` until a server reported one).
    loop_stalls: Option<u64>,
}

impl JoinClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<JoinClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        JoinClient::from_stream(stream)
    }

    /// Connects with a timeout on the TCP handshake.
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        timeout: Duration,
    ) -> Result<JoinClient, NetError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        JoinClient::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> Result<JoinClient, NetError> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(JoinClient {
            reader: BufReader::new(stream),
            writer,
            records_sent: 0,
            updates: Vec::new(),
            dropped: 0,
            loop_stalls: None,
        })
    }

    /// Records accepted by the server in this session so far — the id the
    /// *next* record will receive.
    pub fn records_sent(&self) -> u64 {
        self.records_sent
    }

    fn send_line(&mut self, request: &Request) -> Result<(), NetError> {
        let mut line = request.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, NetError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(NetError::Protocol("server closed the connection".into()));
        }
        Response::parse(&line).map_err(|e| NetError::Protocol(e.to_string()))
    }

    /// Reads `P` lines until the terminating `OK`; `E` becomes
    /// [`NetError::Server`]. Pushed `U` updates are collected aside
    /// (see [`JoinClient::take_updates`]) and never counted.
    fn read_pairs(&mut self) -> Result<Vec<SimilarPair>, NetError> {
        let mut pairs = Vec::new();
        loop {
            match self.read_response()? {
                Response::Pair(p) => pairs.push(p),
                Response::Update { node, pair } => self.updates.push((node, pair)),
                Response::Dropped(n) => self.dropped += n,
                Response::Ok(n) => {
                    if n as usize != pairs.len() {
                        return Err(NetError::Protocol(format!(
                            "server announced {n} pairs but sent {}",
                            pairs.len()
                        )));
                    }
                    return Ok(pairs);
                }
                Response::Err(m) => return Err(NetError::Server(m)),
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected response {other:?} while reading pairs"
                    )))
                }
            }
        }
    }

    /// Reconfigures the session; must precede the first record.
    pub fn configure(&mut self, config: ConfigRequest) -> Result<(), NetError> {
        self.send_line(&Request::Config(config))?;
        self.read_pairs().map(|_| ())
    }

    /// Sends one pre-vectorised record (weights are normalised
    /// server-side); returns the pairs it completed.
    pub fn send_vector(
        &mut self,
        t: f64,
        entries: &[(u32, f64)],
    ) -> Result<Vec<SimilarPair>, NetError> {
        self.send_line(&Request::Vector {
            t,
            entries: entries.to_vec(),
        })?;
        let pairs = self.read_pairs()?;
        self.records_sent += 1;
        Ok(pairs)
    }

    /// Sends an existing [`StreamRecord`]. The server assigns its own id
    /// (the session ordinal), which may differ from `record.id`.
    pub fn send_record(&mut self, record: &StreamRecord) -> Result<Vec<SimilarPair>, NetError> {
        let entries: Vec<(u32, f64)> = record.vector.iter().collect();
        self.send_vector(record.t.seconds(), &entries)
    }

    /// Sends one raw-text record (text-mode sessions); returns the pairs
    /// it completed.
    pub fn send_text(&mut self, t: f64, text: &str) -> Result<Vec<SimilarPair>, NetError> {
        if text.contains('\n') {
            return Err(NetError::Protocol("text may not contain newlines".into()));
        }
        self.send_line(&Request::Text {
            t,
            text: text.to_string(),
        })?;
        let pairs = self.read_pairs()?;
        self.records_sent += 1;
        Ok(pairs)
    }

    /// Fetches the session's work counters. The server prefixes the `S`
    /// line with `G loop_stalls=<n>` — the loop's stall-probe reading —
    /// which is stashed aside (see [`JoinClient::loop_stalls`]); pushed
    /// `U`/`D` frames are collected as usual.
    pub fn stats(&mut self) -> Result<SessionStats, NetError> {
        self.send_line(&Request::Stats)?;
        loop {
            match self.read_response()? {
                Response::Stats(s) => return Ok(s),
                Response::Graph(fields) => {
                    if let Some(&(_, n)) = fields.iter().find(|(k, _)| k == "loop_stalls") {
                        self.loop_stalls = Some(n);
                    }
                }
                Response::Update { node, pair } => self.updates.push((node, pair)),
                Response::Dropped(n) => self.dropped += n,
                Response::Err(m) => return Err(NetError::Server(m)),
                other => return Err(NetError::Protocol(format!("expected stats, got {other:?}"))),
            }
        }
    }

    /// The serving loop's stall count as of the last [`JoinClient::stats`]
    /// call (`None` before one, or when the reply carried no
    /// `G loop_stalls=` line).
    pub fn loop_stalls(&self) -> Option<u64> {
        self.loop_stalls
    }

    /// Fetches the server's process-global metric registry (`METRICS`):
    /// the Prometheus text-exposition lines, `M ` prefixes stripped.
    /// Empty when the server runs with `SSSJ_TELEMETRY=off`.
    pub fn metrics(&mut self) -> Result<Vec<String>, NetError> {
        self.send_line(&Request::Metrics)?;
        let mut lines = Vec::new();
        loop {
            match self.read_response()? {
                Response::Metric(line) => lines.push(line),
                Response::Update { node, pair } => self.updates.push((node, pair)),
                Response::Dropped(n) => self.dropped += n,
                Response::Ok(n) => {
                    if n as usize != lines.len() {
                        return Err(NetError::Protocol(format!(
                            "server announced {n} metric lines but sent {}",
                            lines.len()
                        )));
                    }
                    return Ok(lines);
                }
                Response::Err(m) => return Err(NetError::Server(m)),
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected response {other:?} while reading metrics"
                    )))
                }
            }
        }
    }

    /// Dumps the server's flight recorder (`TRACE n`): the raw reply
    /// lines, `R ` prefixes stripped. The first line is the watermark-
    /// clocked header (`# now=… watermark=… dropped=…`); each following
    /// line is one event ([`sssj_metrics::trace::TraceEvent::from_wire`]
    /// parses them). Header-only when the server runs with
    /// `SSSJ_TRACE=off`.
    pub fn trace(&mut self, max: u64) -> Result<Vec<String>, NetError> {
        self.send_line(&Request::Trace { max })?;
        let mut lines = Vec::new();
        loop {
            match self.read_response()? {
                Response::TraceLine(line) => lines.push(line),
                Response::Update { node, pair } => self.updates.push((node, pair)),
                Response::Dropped(n) => self.dropped += n,
                Response::Ok(n) => {
                    if n as usize != lines.len() {
                        return Err(NetError::Protocol(format!(
                            "server announced {n} trace lines but sent {}",
                            lines.len()
                        )));
                    }
                    return Ok(lines);
                }
                Response::Err(m) => return Err(NetError::Server(m)),
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected response {other:?} while reading a trace"
                    )))
                }
            }
        }
    }

    /// Signals end-of-stream and returns the flushed pairs (MiniBatch
    /// sessions report their trailing windows here).
    pub fn finish(&mut self) -> Result<Vec<SimilarPair>, NetError> {
        self.send_line(&Request::Finish)?;
        self.read_pairs()
    }

    /// The pushed subscription updates received so far (each is the
    /// subscribed node plus the pair that touched it), oldest first.
    /// On a per-session server updates arrive interleaved with the
    /// responses to `V`/`T`/`FINISH` requests after a
    /// [`JoinClient::subscribe`]; on a shared event-loop server they
    /// are pushed out of band and also show up via
    /// [`JoinClient::poll_updates`].
    pub fn take_updates(&mut self) -> Vec<(u64, SimilarPair)> {
        std::mem::take(&mut self.updates)
    }

    /// How many pushed updates the server has reported **dropping** for
    /// this connection so far (coalesced `D <n>` lines from its bounded
    /// push queue — see the protocol docs). Monotone; a non-zero value
    /// means [`JoinClient::take_updates`] is missing that many edges.
    pub fn dropped_updates(&self) -> u64 {
        self.dropped
    }

    /// Passively listens for pushed frames for up to `timeout` without
    /// sending anything — the server-push half of `SUBSCRIBE` on a
    /// shared server, where updates are triggered by *other* clients'
    /// ingest. Returns the updates that arrived (also recording drop
    /// reports); the connection's read deadline is restored afterwards.
    pub fn poll_updates(&mut self, timeout: Duration) -> Result<Vec<(u64, SimilarPair)>, NetError> {
        let deadline = std::time::Instant::now() + timeout;
        let stream = self.reader.get_ref().try_clone()?;
        let mut line = String::new();
        loop {
            let now = std::time::Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            stream.set_read_timeout(Some(remaining))?;
            // Accumulate into one buffer across timeouts: a read that
            // dies mid-line keeps its partial bytes for the next pass.
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    stream.set_read_timeout(None)?;
                    return Err(NetError::Protocol("server closed the connection".into()));
                }
                Ok(_) => {
                    let parsed =
                        Response::parse(&line).map_err(|e| NetError::Protocol(e.to_string()));
                    line.clear();
                    match parsed? {
                        Response::Update { node, pair } => self.updates.push((node, pair)),
                        Response::Dropped(n) => self.dropped += n,
                        other => {
                            stream.set_read_timeout(None)?;
                            return Err(NetError::Protocol(format!(
                                "unexpected frame {other:?} while idle (only pushed U/D \
                                 frames may arrive between requests)"
                            )));
                        }
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(e) => {
                    stream.set_read_timeout(None)?;
                    return Err(e.into());
                }
            }
        }
        stream.set_read_timeout(None)?;
        Ok(self.take_updates())
    }

    /// Subscribes to pushed edge updates for `node` (graph sessions).
    pub fn subscribe(&mut self, node: u64) -> Result<(), NetError> {
        self.send_line(&Request::Subscribe { node })?;
        self.read_pairs().map(|_| ())
    }

    /// `QUERY neighbors <node>`: every live neighbour of `node` as
    /// pairs `(node, neighbour)` with the edge similarity.
    pub fn query_neighbors(&mut self, node: u64) -> Result<Vec<SimilarPair>, NetError> {
        self.query_neighbors_at(node, None)
    }

    /// `QUERY neighbors <node> at=<t>`: `node`'s neighbours as of
    /// historical time `t` (`None` = the live watermark). Times behind
    /// the live window need a `history=`-wrapped session.
    pub fn query_neighbors_at(
        &mut self,
        node: u64,
        at: Option<f64>,
    ) -> Result<Vec<SimilarPair>, NetError> {
        self.send_line(&Request::Query(GraphQuery::Neighbors { node, at }))?;
        self.read_pairs()
    }

    /// `QUERY topk <node> <k>`: the `k` best live neighbours, best
    /// first.
    pub fn query_topk(&mut self, node: u64, k: u32) -> Result<Vec<SimilarPair>, NetError> {
        self.query_topk_at(node, k, None)
    }

    /// `QUERY topk <node> <k> at=<t>`: the `k` best neighbours as of
    /// historical time `t` (`None` = the live watermark).
    pub fn query_topk_at(
        &mut self,
        node: u64,
        k: u32,
        at: Option<f64>,
    ) -> Result<Vec<SimilarPair>, NetError> {
        self.send_line(&Request::Query(GraphQuery::TopK { node, k, at }))?;
        self.read_pairs()
    }

    /// `QUERY component <node>`: the node's connected component as
    /// `(canonical root, size)`; size 0 means the node has no live edge.
    pub fn query_component(&mut self, node: u64) -> Result<(u64, u64), NetError> {
        self.query_component_at(node, None)
    }

    /// `QUERY component <node> at=<t>`: the component as of historical
    /// time `t` (`None` = the live watermark).
    pub fn query_component_at(
        &mut self,
        node: u64,
        at: Option<f64>,
    ) -> Result<(u64, u64), NetError> {
        self.send_line(&Request::Query(GraphQuery::Component { node, at }))?;
        let fields = self.read_graph_fields()?;
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
                .ok_or_else(|| NetError::Protocol(format!("G reply missing {key}=")))
        };
        Ok((get("root")?, get("size")?))
    }

    /// `QUERY stats`: the graph's aggregate counters as the server's
    /// ordered `key=value` fields (`nodes`, `edges`, `components`).
    pub fn graph_stats(&mut self) -> Result<Vec<(String, u64)>, NetError> {
        self.send_line(&Request::Query(GraphQuery::Stats))?;
        self.read_graph_fields()
    }

    /// Reads one `G` response (collecting any pushed `U` lines aside).
    fn read_graph_fields(&mut self) -> Result<Vec<(String, u64)>, NetError> {
        loop {
            match self.read_response()? {
                Response::Graph(fields) => return Ok(fields),
                Response::Update { node, pair } => self.updates.push((node, pair)),
                Response::Dropped(n) => self.dropped += n,
                Response::Err(m) => return Err(NetError::Server(m)),
                other => {
                    return Err(NetError::Protocol(format!(
                        "expected a G reply, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Closes the session gracefully.
    pub fn quit(mut self) -> Result<(), NetError> {
        self.send_line(&Request::Quit)?;
        match self.read_response()? {
            Response::Bye => Ok(()),
            other => Err(NetError::Protocol(format!("expected BYE, got {other:?}"))),
        }
    }
}
