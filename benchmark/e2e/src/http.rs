//! A keep-alive HTTP/1.1 connection to `soct serve`, and the one JSON
//! accessor the checks need.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Conn {
    out: TcpStream,
    inp: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        out.set_read_timeout(Some(Duration::from_secs(60)))?;
        let inp = BufReader::new(out.try_clone()?);
        Ok(Conn { out, inp })
    }

    /// One request and its response: (status, body).
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut req = Vec::with_capacity(head.len() + body.len());
        req.extend_from_slice(head.as_bytes());
        req.extend_from_slice(body.as_bytes());
        self.out.write_all(&req)?;
        let mut line = String::new();
        self.inp.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.inp.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v
                        .trim()
                        .parse()
                        .map_err(|_| io::Error::other("bad Content-Length"))?;
                }
            }
        }
        let mut buf = vec![0u8; len];
        self.inp.read_exact(&mut buf)?;
        let body = String::from_utf8(buf).map_err(|_| io::Error::other("body is not UTF-8"))?;
        Ok((status, body))
    }
}

/// The value of `"key":` in a flat JSON object, without quotes.
pub fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.find('"').map(|e| &s[..e]),
        None => {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim())
        }
    }
}

/// The value of an unlabelled Prometheus sample.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_flat_fields() {
        let j = r#"{"verdict":"finite","rules":12,"cached":true}"#;
        assert_eq!(field(j, "verdict"), Some("finite"));
        assert_eq!(field(j, "rules"), Some("12"));
        assert_eq!(field(j, "cached"), Some("true"));
        assert_eq!(field(j, "nope"), None);
        let p = "# HELP x y\nsoct_wal_fsyncs_total 17\nsoct_wal_fsyncs_total_other 3\n";
        assert_eq!(prom_value(p, "soct_wal_fsyncs_total"), Some(17.0));
    }
}
