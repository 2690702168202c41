//! A minimal threaded TCP transport.
//!
//! The large-scale evaluation uses the deterministic simulator in `ng-sim`; this
//! transport exists so the protocol stack (codec → peer → gossip) can also run over
//! real sockets, as the paper's testbed does with the operational client. It is
//! intentionally small: one listener thread per endpoint, one reader thread per
//! connection, blocking writes, and a crossbeam channel delivering [`TcpEvent`]s to the
//! owner.
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

/// The write side of one connection. The lock keeps concurrent frames from
/// interleaving; shutting the socket down needs no lock, so `close` and
/// `shutdown` never wait behind a blocked write.
struct Writer {
    stream: TcpStream,
    lock: Mutex<()>,
}

type Writers = Arc<Mutex<HashMap<u64, Arc<Writer>>>>;

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

/// A TCP endpoint: listener plus outbound connections, all speaking framed [`Message`]s.
pub struct TcpEndpoint {
    local_addr: SocketAddr,
    events_rx: Receiver<TcpEvent>,
    events_tx: Sender<TcpEvent>,
    writers: Writers,
    next_connection: Arc<AtomicU64>,
    closing: Arc<AtomicBool>,
    codec: FrameCodec,
}

impl TcpEndpoint {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (events_tx, events_rx) = unbounded();
        let endpoint = TcpEndpoint {
            local_addr,
            events_rx,
            events_tx,
            writers: Arc::new(Mutex::new(HashMap::new())),
            next_connection: Arc::new(AtomicU64::new(0)),
            closing: Arc::new(AtomicBool::new(false)),
            codec: FrameCodec::default(),
        };
        endpoint.spawn_acceptor(listener);
        Ok(endpoint)
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The receiving side of the event stream.
    pub fn events(&self) -> &Receiver<TcpEvent> {
        &self.events_rx
    }

    /// Opens an outbound connection; returns its connection id.
    pub fn connect(&self, addr: SocketAddr) -> std::io::Result<u64> {
        let stream = TcpStream::connect(addr)?;
        Ok(self.register(stream, false))
    }

    /// Sends a message on a connection. Errors if the connection is gone, encoding
    /// fails, or the write fails or times out ([`WRITE_TIMEOUT`]); a failed write
    /// closes the connection.
    pub fn send(&self, connection: u64, message: &Message) -> Result<(), String> {
        let frame = self
            .codec
            .encode(message)
            .map_err(|e: CodecError| e.to_string())?;
        let writer = self
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
        if let Some(writer) = self.writers.lock().remove(&connection) {
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.writers.lock().len()
    }

    /// Stops the endpoint: closes every connection and unblocks the acceptor thread
    /// so it exits (instead of leaking a blocked thread plus the bound listener for
    /// the life of the process). Idempotent; also called on drop.
    pub fn shutdown(&self) {
        if self.closing.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, writer) in self.writers.lock().drain() {
            let _ = writer.stream.shutdown(std::net::Shutdown::Both);
        }
        // Wake the acceptor blocked in `incoming()`; it sees `closing` and exits.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn spawn_acceptor(&self, listener: TcpListener) {
        let events_tx = self.events_tx.clone();
        let writers = Arc::clone(&self.writers);
        let next_connection = Arc::clone(&self.next_connection);
        let closing = Arc::clone(&self.closing);
        let codec = self.codec.clone();
        thread::spawn(move || {
            for stream in listener.incoming() {
                if closing.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                register_stream(
                    stream,
                    true,
                    &events_tx,
                    &writers,
                    &next_connection,
                    codec.clone(),
                );
            }
        });
    }

    fn register(&self, stream: TcpStream, inbound: bool) -> u64 {
        register_stream(
            stream,
            inbound,
            &self.events_tx,
            &self.writers,
            &self.next_connection,
            self.codec.clone(),
        )
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn register_stream(
    stream: TcpStream,
    inbound: bool,
    events_tx: &Sender<TcpEvent>,
    writers: &Writers,
    next_connection: &Arc<AtomicU64>,
    codec: FrameCodec,
) -> u64 {
    let connection = next_connection.fetch_add(1, Ordering::SeqCst);
    let remote = stream
        .peer_addr()
        .unwrap_or_else(|_| "0.0.0.0:0".parse().expect("static addr"));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let reader = stream.try_clone().expect("clone tcp stream");
    let writer = Writer {
        stream,
        lock: Mutex::new(()),
    };
    writers.lock().insert(connection, Arc::new(writer));
    let _ = events_tx.send(TcpEvent::Connected {
        connection,
        remote,
        inbound,
    });

    let events_tx = events_tx.clone();
    let writers = Arc::clone(writers);
    thread::spawn(move || {
        let mut reader = reader;
        let mut buffer = BytesMut::with_capacity(64 * 1024);
        let mut chunk = [0u8; 16 * 1024];
        let reason = loop {
            match reader.read(&mut chunk) {
                Ok(0) => break "connection closed by peer".to_string(),
                Ok(n) => {
                    buffer.extend_from_slice(&chunk[..n]);
                    loop {
                        match codec.decode(&mut buffer) {
                            Ok(Some(message)) => {
                                if events_tx
                                    .send(TcpEvent::Message {
                                        connection,
                                        message,
                                    })
                                    .is_err()
                                {
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                let _ = events_tx.send(TcpEvent::Disconnected {
                                    connection,
                                    reason: e.to_string(),
                                });
                                writers.lock().remove(&connection);
                                return;
                            }
                        }
                    }
                }
                Err(e) => break e.to_string(),
            }
        };
        writers.lock().remove(&connection);
        let _ = events_tx.send(TcpEvent::Disconnected { connection, reason });
    });
    connection
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
}
