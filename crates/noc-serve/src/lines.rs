//! Bounded request-line framing, shared by the stdio and socket
//! transports.
//!
//! `BufRead::read_line` grows its `String` for as long as a client
//! withholds the newline, and fails the whole stream on one non-UTF-8
//! byte. [`RequestLines`] holds at most [`MAX_LINE_BYTES`] (plus one
//! read buffer) of an unfinished line and turns both conditions into a
//! [`Framed::Refused`] the transport answers with one typed `error`
//! response.

use std::io::{self, BufRead};

use noc_eval::serve::MAX_LINE_BYTES;

/// What [`RequestLines::next_line`] read.
#[derive(Debug, PartialEq, Eq)]
pub enum Framed {
    /// One request line, without its newline.
    Line(String),
    /// A line that will not be parsed, and why: longer than
    /// [`MAX_LINE_BYTES`], or not UTF-8. Reported once per line, as
    /// soon as it is known; the rest of an over-long line is discarded
    /// unread if the caller keeps reading.
    Refused(String),
    /// The stream ended.
    Eof,
}

/// A line reader over `reader` that never buffers more than the bound.
pub struct RequestLines<R> {
    reader: R,
    line: Vec<u8>,
    /// Discarding the tail of a line already refused as over-long.
    skipping: bool,
}

impl<R: BufRead> RequestLines<R> {
    /// Frame the lines of `reader`.
    pub fn new(reader: R) -> Self {
        Self { reader, line: Vec::new(), skipping: false }
    }

    /// The next line. A read error — including the `WouldBlock` or
    /// `TimedOut` of a socket read timeout — is returned as is, and the
    /// bytes of a partial line stay buffered for the next call.
    pub fn next_line(&mut self) -> io::Result<Framed> {
        loop {
            let chunk = self.reader.fill_buf()?;
            if chunk.is_empty() {
                // an unterminated final line still counts, as with `lines()`
                let partial = !self.line.is_empty() && !self.skipping;
                return Ok(if partial { self.take_line() } else { Framed::Eof });
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let body = &chunk[..newline.unwrap_or(chunk.len())];
            if !self.skipping {
                self.line.extend_from_slice(body);
            }
            let used = body.len() + newline.is_some() as usize;
            self.reader.consume(used);
            if self.line.len() > MAX_LINE_BYTES {
                self.line = Vec::new();
                self.skipping = newline.is_none();
                return Ok(Framed::Refused(format!(
                    "request line is longer than {MAX_LINE_BYTES} bytes"
                )));
            }
            if newline.is_some() && !std::mem::take(&mut self.skipping) {
                return Ok(self.take_line());
            }
        }
    }

    fn take_line(&mut self) -> Framed {
        match String::from_utf8(std::mem::take(&mut self.line)) {
            Ok(line) => Framed::Line(line),
            Err(_) => Framed::Refused("request line is not valid UTF-8".into()),
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    fn pair() -> (UnixStream, RequestLines<BufReader<UnixStream>>) {
        let (client, server) = UnixStream::pair().unwrap();
        server.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        (client, RequestLines::new(BufReader::new(server)))
    }

    fn is_timeout(e: &io::Error) -> bool {
        matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    }

    fn timed_out(r: io::Result<Framed>) -> bool {
        matches!(r, Err(e) if is_timeout(&e))
    }

    #[test]
    fn a_partial_line_survives_read_timeouts() {
        let (mut client, mut lines) = pair();
        client.write_all(b"{\"req\": ").unwrap();
        assert!(timed_out(lines.next_line()), "no newline yet");
        assert!(timed_out(lines.next_line()));
        client.write_all(b"\"health\"}\nnext\r\nlast").unwrap();
        assert_eq!(lines.next_line().unwrap(), Framed::Line("{\"req\": \"health\"}".into()));
        assert_eq!(lines.next_line().unwrap(), Framed::Line("next\r".into()));
        drop(client);
        assert_eq!(lines.next_line().unwrap(), Framed::Line("last".into()), "unterminated tail");
        assert_eq!(lines.next_line().unwrap(), Framed::Eof);
    }

    #[test]
    fn an_over_long_line_is_refused_once_and_skipped() {
        let (client, mut lines) = pair();
        let writer = std::thread::spawn(move || {
            let mut client = client;
            // never sends a newline until well past the bound
            let chunk = vec![b'x'; 1 << 16];
            for _ in 0..(MAX_LINE_BYTES >> 16) + 2 {
                client.write_all(&chunk).unwrap();
            }
            client.write_all(b"tail of the long line\nshort\n").unwrap();
            let exact = vec![b'y'; MAX_LINE_BYTES];
            client.write_all(&exact).unwrap();
            client.write_all(b"\n").unwrap();
        });
        let mut next = || loop {
            match lines.next_line() {
                Err(e) if is_timeout(&e) => continue,
                other => return other.unwrap(),
            }
        };
        let Framed::Refused(why) = next() else { panic!("the long line must be refused") };
        assert!(why.contains("longer than"), "{why}");
        assert_eq!(next(), Framed::Line("short".into()), "the refused line's tail is skipped");
        let Framed::Line(exact) = next() else { panic!("a line of exactly the bound is legal") };
        assert_eq!(exact.len(), MAX_LINE_BYTES);
        writer.join().unwrap();
        assert_eq!(next(), Framed::Eof);
    }

    #[test]
    fn a_non_utf8_line_is_refused_and_the_stream_continues() {
        let (mut client, mut lines) = pair();
        client.write_all(b"ok\n\xff\xfe{}\nstill ok\n").unwrap();
        assert_eq!(lines.next_line().unwrap(), Framed::Line("ok".into()));
        let Framed::Refused(why) = lines.next_line().unwrap() else { panic!("refused") };
        assert!(why.contains("UTF-8"), "{why}");
        assert_eq!(lines.next_line().unwrap(), Framed::Line("still ok".into()));
    }
}
