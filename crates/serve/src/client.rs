//! A minimal blocking client for the `cumulon-serve-v1` protocol — used
//! by the CI smoke harness, tests and scripts. One TCP connection, one
//! in-order request/response exchange per call.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use cumulon_core::error::CoreError;
use cumulon_core::Result;
use cumulon_trace::json::{parse, JsonValue};

/// A blocking protocol client over one TCP connection.
///
/// ```no_run
/// use cumulon_serve::Client;
/// let mut client = Client::connect("127.0.0.1:7070".parse().unwrap()).unwrap();
/// let resp = client
///     .request(r#"{"schema":"cumulon-serve-v1","id":"r1","tenant":"me","action":"plan",
///                  "script":"G = A' * A;","inputs":["A=2000x1000"]}"#)
///     .unwrap();
/// assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
/// ```
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| CoreError::Invariant(format!("cannot connect {addr}: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| CoreError::Invariant(format!("cannot clone stream: {e}")))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads the matching response line,
    /// parsed. Newlines inside `line` are rejected — they would frame as
    /// multiple requests.
    pub fn request(&mut self, line: &str) -> Result<JsonValue> {
        if line.contains('\n') {
            return Err(CoreError::Invariant("request must be a single line".into()));
        }
        // One write for the line and its newline: a trailing one-byte
        // segment would wait on the server's delayed ACK (Nagle).
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .write_all(&framed)
            .map_err(|e| CoreError::Invariant(format!("send failed: {e}")))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| CoreError::Invariant(format!("receive failed: {e}")))?;
        if response.is_empty() {
            return Err(CoreError::Invariant("server closed the connection".into()));
        }
        parse(&response).map_err(|e| CoreError::Invariant(format!("bad response JSON: {e}")))
    }
}
