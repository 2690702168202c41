//! A minimal threaded TCP transport.
//!
//! The large-scale evaluation uses the deterministic simulator in `ng-sim`; this
//! transport exists so the protocol stack (codec → peer → gossip) can also run over
//! real sockets, as the paper's testbed does with the operational client. It is
//! intentionally small: one listener thread per endpoint, one reader thread per
//! connection, blocking writes, and a crossbeam channel delivering [`TcpEvent`]s to the
//! owner.
//!
//! The owner supplies that channel ([`TcpEndpoint::bind_with`]) and names its item
//! type, any `E: From<TcpEvent>`; [`TcpEndpoint::bind`] is `bind_with` on a fresh
//! channel of plain [`TcpEvent`]s. An owner that already waits on a channel of its
//! own inputs passes that one, so a frame goes from the reader thread straight to
//! the owner's loop, with no thread in between to copy it across.
//!
//! Every stream, dialled or accepted, has Nagle's algorithm off (`TCP_NODELAY`), so
//! a frame leaves when it is written. The protocol writes small frames back to back
//! (a `tx` after a `tx`, an `inv` after a `cmpct`) and often waits for an answer to
//! the second; with Nagle on, that frame waits for the ACK of the first, which a
//! receiver with nothing to send delays by up to 40 ms.
//!
//! Each connection has its own write lock, and every write gives up after
//! [`WRITE_TIMEOUT`]: a peer that stops reading costs its own connection, which is
//! then closed, and never blocks a send to anyone else.

use crate::codec::{CodecError, FrameCodec};
use crate::message::Message;
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long one frame write may block before its connection is given up. A
/// peer whose socket buffers stay full this long is not reading; the failed
/// write closes the connection, and its reader reports `Disconnected`.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long the acceptor waits after a failed `accept` before the next one. The
/// usual cause, the process out of descriptors (`EMFILE`), outlasts an
/// immediate retry, which would only spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// The write side of one connection. The lock keeps concurrent frames from
/// interleaving; shutting the socket down needs no lock, so `close` and
/// `shutdown` never wait behind a blocked write.
struct Writer {
    stream: TcpStream,
    lock: Mutex<()>,
}

/// Events delivered to the endpoint owner.
#[derive(Debug)]
pub enum TcpEvent {
    /// A new connection was established (inbound or outbound).
    Connected {
        /// Endpoint-local connection id.
        connection: u64,
        /// Remote socket address.
        remote: SocketAddr,
        /// True if the remote initiated the connection.
        inbound: bool,
    },
    /// A complete message arrived on a connection.
    Message {
        /// Endpoint-local connection id.
        connection: u64,
        /// The decoded message.
        message: Message,
    },
    /// A connection closed (EOF, I/O error or protocol error).
    Disconnected {
        /// Endpoint-local connection id.
        connection: u64,
        /// Human-readable reason.
        reason: String,
    },
}

/// What the endpoint, its acceptor and its reader threads share.
struct Shared<E> {
    events_tx: Sender<E>,
    writers: Mutex<HashMap<u64, Arc<Writer>>>,
    next_connection: AtomicU64,
    closing: AtomicBool,
    codec: FrameCodec,
}

/// A TCP endpoint: listener plus outbound connections, all speaking framed
/// [`Message`]s, reporting into a channel of `E`s.
pub struct TcpEndpoint<E = TcpEvent> {
    local_addr: SocketAddr,
    events_rx: Receiver<E>,
    shared: Arc<Shared<E>>,
}

impl TcpEndpoint {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections; events arrive on [`TcpEndpoint::events`].
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Self::bind_with(addr, unbounded())
    }
}

impl<E: From<TcpEvent> + Send + 'static> TcpEndpoint<E> {
    /// [`TcpEndpoint::bind`], reporting into the owner's channel: every event is
    /// converted with `E::from` and sent on `channel.0`; [`TcpEndpoint::events`]
    /// returns `channel.1`.
    pub fn bind_with(addr: &str, channel: (Sender<E>, Receiver<E>)) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (events_tx, events_rx) = channel;
        let shared = Arc::new(Shared {
            events_tx,
            writers: Mutex::new(HashMap::new()),
            next_connection: AtomicU64::new(0),
            closing: AtomicBool::new(false),
            codec: FrameCodec::default(),
        });
        let acceptor = Arc::clone(&shared);
        thread::spawn(move || accept_loop(listener.incoming(), &acceptor));
        Ok(TcpEndpoint {
            local_addr,
            events_rx,
            shared,
        })
    }

    /// Opens an outbound connection; returns its connection id. Errors if the dial
    /// fails or the stream cannot be cloned for its reader thread.
    pub fn connect(&self, addr: SocketAddr) -> std::io::Result<u64> {
        register_stream(TcpStream::connect(addr)?, false, &self.shared)
    }
}

impl<E> TcpEndpoint<E> {
    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The receiving side of the event stream.
    pub fn events(&self) -> &Receiver<E> {
        &self.events_rx
    }

    /// Sends a message on a connection. Errors if the connection is gone, encoding
    /// fails, or the write fails or times out ([`WRITE_TIMEOUT`]); a failed write
    /// closes the connection.
    pub fn send(&self, connection: u64, message: &Message) -> Result<(), String> {
        let frame = self
            .shared
            .codec
            .encode(message)
            .map_err(|e: CodecError| e.to_string())?;
        let writer = self
            .shared
            .writers
            .lock()
            .get(&connection)
            .cloned()
            .ok_or_else(|| format!("connection {connection} is closed"))?;
        let _frame_lock = writer.lock.lock();
        (&writer.stream).write_all(&frame).map_err(|e| {
            self.close(connection);
            e.to_string()
        })
    }

    /// Closes a connection (the reader thread will emit `Disconnected`).
    pub fn close(&self, connection: u64) {
        if let Some(writer) = self.shared.writers.lock().remove(&connection) {
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.shared.writers.lock().len()
    }

    /// Stops the endpoint: closes every connection and unblocks the acceptor thread
    /// so it exits (instead of leaking a blocked thread plus the bound listener for
    /// the life of the process). Idempotent; also called on drop.
    pub fn shutdown(&self) {
        if self.shared.closing.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, writer) in self.shared.writers.lock().drain() {
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
        // Wake the acceptor blocked in `incoming()`; it sees `closing` and exits.
        let _ = TcpStream::connect(self.local_addr);
    }
}

impl<E> Drop for TcpEndpoint<E> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Registers every inbound stream `incoming` yields until the endpoint closes. A
/// failed `accept` costs [`ACCEPT_BACKOFF`], and a stream that cannot be
/// registered is dropped, which closes it; neither stops the loop.
fn accept_loop<E: From<TcpEvent> + Send + 'static>(
    incoming: impl IntoIterator<Item = std::io::Result<TcpStream>>,
    shared: &Arc<Shared<E>>,
) {
    for stream in incoming {
        if shared.closing.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let _ = register_stream(stream, true, shared);
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

fn register_stream<E: From<TcpEvent> + Send + 'static>(
    stream: TcpStream,
    inbound: bool,
    shared: &Arc<Shared<E>>,
) -> std::io::Result<u64> {
    let reader = stream.try_clone()?;
    let connection = shared.next_connection.fetch_add(1, Ordering::SeqCst);
    let remote = stream
        .peer_addr()
        .unwrap_or_else(|_| SocketAddr::from(([0, 0, 0, 0], 0)));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let writer = Writer {
        stream,
        lock: Mutex::new(()),
    };
    shared.writers.lock().insert(connection, Arc::new(writer));
    let _ = shared.events_tx.send(E::from(TcpEvent::Connected {
        connection,
        remote,
        inbound,
    }));

    let shared = Arc::clone(shared);
    thread::spawn(move || {
        let report = |event: TcpEvent| shared.events_tx.send(E::from(event)).is_ok();
        let mut reader = reader;
        let mut buffer = BytesMut::with_capacity(64 * 1024);
        let mut chunk = [0u8; 16 * 1024];
        let reason = 'read: loop {
            match reader.read(&mut chunk) {
                Ok(0) => break "connection closed by peer".to_string(),
                Ok(n) => {
                    buffer.extend_from_slice(&chunk[..n]);
                    loop {
                        match shared.codec.decode(&mut buffer) {
                            Ok(Some(message)) => {
                                if !report(TcpEvent::Message {
                                    connection,
                                    message,
                                }) {
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => break 'read e.to_string(),
                        }
                    }
                }
                Err(e) => break e.to_string(),
            }
        };
        shared.writers.lock().remove(&connection);
        report(TcpEvent::Disconnected { connection, reason });
    });
    Ok(connection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ProtocolKind;
    use std::time::Duration;

    fn recv_message(endpoint: &TcpEndpoint, timeout: Duration) -> Option<(u64, Message)> {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            match endpoint.events().recv_timeout(Duration::from_millis(100)) {
                Ok(TcpEvent::Message {
                    connection,
                    message,
                }) => return Some((connection, message)),
                Ok(_) => continue,
                Err(_) => continue,
            }
        }
        None
    }

    fn wait_connection(endpoint: &TcpEndpoint, timeout: Duration) -> Option<u64> {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if let Ok(TcpEvent::Connected { connection, .. }) =
                endpoint.events().recv_timeout(Duration::from_millis(100))
            {
                return Some(connection);
            }
        }
        None
    }

    #[test]
    fn messages_flow_between_two_endpoints() {
        let server = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let client = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let conn = client.connect(server.local_addr()).unwrap();
        let server_conn = wait_connection(&server, Duration::from_secs(5)).expect("accepted");
        // Drain the client's own Connected event.
        let _ = wait_connection(&client, Duration::from_secs(5));

        let hello = Message::Version {
            node_id: 1,
            protocol: ProtocolKind::BitcoinNg,
            best_height: 0,
            time_ms: 42,
        };
        client.send(conn, &hello).unwrap();
        let (at, received) = recv_message(&server, Duration::from_secs(5)).expect("message");
        assert_eq!(at, server_conn);
        assert_eq!(received, hello);

        // And the other direction.
        server.send(server_conn, &Message::Verack).unwrap();
        let (_, received) = recv_message(&client, Duration::from_secs(5)).expect("reply");
        assert_eq!(received, Message::Verack);
    }

    #[test]
    fn closing_a_connection_emits_disconnected() {
        let server = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let client = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let conn = client.connect(server.local_addr()).unwrap();
        let _ = wait_connection(&server, Duration::from_secs(5));
        let _ = wait_connection(&client, Duration::from_secs(5));
        client.close(conn);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut disconnected = false;
        while std::time::Instant::now() < deadline {
            if let Ok(TcpEvent::Disconnected { .. }) =
                client.events().recv_timeout(Duration::from_millis(100))
            {
                disconnected = true;
                break;
            }
        }
        assert!(disconnected, "no Disconnected event observed");
    }

    #[test]
    fn shutdown_closes_connections_and_stops_accepting() {
        let server = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let client = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let conn = client.connect(server.local_addr()).unwrap();
        assert!(wait_connection(&server, Duration::from_secs(5)).is_some());
        server.shutdown();
        assert_eq!(server.connection_count(), 0);
        // The client's side of the connection dies; sending eventually errors.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if client.send(conn, &Message::Ping(1)).is_err() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "connection to a shut-down endpoint never died"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        // Shutdown is idempotent.
        server.shutdown();
    }

    #[test]
    fn a_peer_that_stops_reading_costs_only_its_own_connection() {
        let endpoint = Arc::new(TcpEndpoint::bind("127.0.0.1:0").unwrap());
        let sink = TcpListener::bind("127.0.0.1:0").unwrap();
        let stuck = endpoint.connect(sink.local_addr().unwrap()).unwrap();
        let (never_reads, _) = sink.accept().unwrap();
        let other = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let healthy = endpoint.connect(other.local_addr()).unwrap();

        // Large frames until the socket buffers are full and a write blocks.
        let big = Message::GetHeaders {
            locator: (0..50_000u64)
                .map(|i| ng_crypto::sha256::sha256(&i.to_le_bytes()))
                .collect(),
            limit: 1,
        };
        let flood_endpoint = Arc::clone(&endpoint);
        let flooder = thread::spawn(move || while flood_endpoint.send(stuck, &big).is_ok() {});
        // Time for the flood to fill the socket buffers and block in a write. The
        // assertions below hold however far it got; the wait is what makes the
        // test fail where one blocked write froze the whole endpoint.
        thread::sleep(Duration::from_millis(500));

        let (done_tx, done_rx) = unbounded();
        let send_endpoint = Arc::clone(&endpoint);
        let sender = thread::spawn(move || {
            let started = std::time::Instant::now();
            let sent = send_endpoint.send(healthy, &Message::Ping(1));
            let _ = done_tx.send((sent, started.elapsed()));
        });
        // A 5 s watchdog: a send blocked behind the stuck write fails here rather
        // than hanging the suite (dropping the silent peer unblocks that write).
        let healthy_send = done_rx.recv_timeout(Duration::from_secs(5));
        let Ok((sent, took)) = healthy_send else {
            drop(never_reads);
            panic!("a send to a healthy connection waited on a peer that stopped reading");
        };
        sender.join().expect("the sender thread finished");
        assert!(sent.is_ok(), "{sent:?}");
        assert!(took < Duration::from_secs(1), "healthy send took {took:?}");

        let deadline = std::time::Instant::now() + WRITE_TIMEOUT + Duration::from_secs(5);
        let mut disconnected = false;
        while !disconnected && std::time::Instant::now() < deadline {
            disconnected = matches!(
                endpoint.events().recv_timeout(Duration::from_millis(100)),
                Ok(TcpEvent::Disconnected { connection, .. }) if connection == stuck
            );
        }
        drop(never_reads);
        assert!(disconnected, "the stuck connection was never reported Disconnected");
        flooder.join().expect("the flood ends once its connection is closed");
        assert!(endpoint.send(stuck, &Message::Ping(2)).is_err());
        assert!(endpoint.send(healthy, &Message::Ping(3)).is_ok());
    }

    #[test]
    fn sending_on_a_closed_connection_errors() {
        let server = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let client = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let conn = client.connect(server.local_addr()).unwrap();
        client.close(conn);
        assert!(client.send(conn, &Message::Ping(1)).is_err());
        let _ = server;
    }

    /// The pattern Nagle's algorithm stalls: A writes two small frames back to
    /// back and B's owner answers once the second is in. With Nagle on, the
    /// second frame waits for the ACK of the first, which a receiver with
    /// nothing to send delays by up to 40 ms.
    #[test]
    fn a_second_small_frame_does_not_wait_for_an_ack() {
        let a = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let b = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let to_b = a.connect(b.local_addr()).unwrap();
        let to_a = wait_connection(&b, Duration::from_secs(5)).expect("accepted");
        let _ = wait_connection(&a, Duration::from_secs(5));
        let mut took = Vec::new();
        for round in 0..20u64 {
            let started = std::time::Instant::now();
            a.send(to_b, &Message::Ping(2 * round)).unwrap();
            a.send(to_b, &Message::Ping(2 * round + 1)).unwrap();
            for _ in 0..2 {
                recv_message(&b, Duration::from_secs(5)).expect("frame at B");
            }
            b.send(to_a, &Message::Pong(round)).unwrap();
            let (_, answer) = recv_message(&a, Duration::from_secs(5)).expect("answer at A");
            assert_eq!(answer, Message::Pong(round));
            took.push(started.elapsed());
        }
        took.sort();
        let median = took[took.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median exchange took {median:?}"
        );
    }

    fn nodelay(endpoint: &TcpEndpoint, connection: u64) -> bool {
        endpoint.shared.writers.lock()[&connection]
            .stream
            .nodelay()
            .unwrap()
    }

    #[test]
    fn dialled_and_accepted_streams_disable_nagle() {
        let server = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let client = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let dialled = client.connect(server.local_addr()).unwrap();
        let accepted = wait_connection(&server, Duration::from_secs(5)).expect("accepted");
        assert!(nodelay(&client, dialled), "the dialled stream runs Nagle");
        assert!(nodelay(&server, accepted), "the accepted stream runs Nagle");
    }

    /// One failed `accept` (here `EMFILE`, the process out of descriptors during
    /// a connection flood) must not end the accept loop and close the port.
    #[test]
    fn an_accept_error_does_not_stop_the_acceptor() {
        const EMFILE: i32 = 24;
        let endpoint = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _dialled = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let incoming = [Err(std::io::Error::from_raw_os_error(EMFILE)), Ok(accepted)];
        accept_loop(incoming, &endpoint.shared);
        assert_eq!(
            endpoint.connection_count(),
            1,
            "the stream after the error was dropped"
        );
        assert!(matches!(
            endpoint.events().recv_timeout(Duration::from_secs(5)),
            Ok(TcpEvent::Connected { inbound: true, .. })
        ));
    }

    /// An owner's input channel: transport events beside the owner's own inputs.
    #[derive(Debug)]
    enum OwnerInput {
        Tcp(TcpEvent),
        Own(u64),
    }

    impl From<TcpEvent> for OwnerInput {
        fn from(event: TcpEvent) -> Self {
            OwnerInput::Tcp(event)
        }
    }

    #[test]
    fn bind_with_reports_a_connection_into_the_owners_channel() {
        let (input_tx, input_rx) = unbounded();
        input_tx.send(OwnerInput::Own(1)).unwrap();
        let server = TcpEndpoint::bind_with("127.0.0.1:0", (input_tx, input_rx.clone())).unwrap();
        let client = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let conn = client.connect(server.local_addr()).unwrap();
        client.send(conn, &Message::Ping(7)).unwrap();
        let next = || {
            input_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("an input")
        };
        assert!(matches!(next(), OwnerInput::Own(1)));
        let OwnerInput::Tcp(TcpEvent::Connected {
            connection,
            inbound: true,
            ..
        }) = next()
        else {
            panic!("expected an inbound Connected first");
        };
        assert!(matches!(
            next(),
            OwnerInput::Tcp(TcpEvent::Message { connection: at, message: Message::Ping(7) })
                if at == connection
        ));
        client.close(conn);
        assert!(matches!(
            next(),
            OwnerInput::Tcp(TcpEvent::Disconnected { connection: at, .. }) if at == connection
        ));
    }
}
