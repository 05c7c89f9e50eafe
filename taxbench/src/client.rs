//! The benchmark's own HTTP client (one request per connection, as the
//! server speaks `Connection: close`) and the rules every 200 body must
//! satisfy.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use taxrec_cli::json::{self, Json};

/// A request that takes longer than this has failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One HTTP exchange.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Time `connect` took, inside the exchange.
    pub connect: Duration,
}

/// Send one request and read the whole response. A connection error, a
/// timeout or a malformed response is an `Err`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(io)?;
    let connect = t0.elapsed();
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: taxbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    let mut raw = Vec::with_capacity(2048);
    stream.read_to_end(&mut raw).map_err(io)?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
        connect,
    })
}

/// One user's ranked list as the server rendered it.
#[derive(Debug, PartialEq)]
pub struct Ranked {
    pub user: usize,
    /// `(item id, rendered score)`, best first.
    pub items: Vec<(u32, f64)>,
}

fn ranked_from(obj: &Json) -> Result<Ranked, String> {
    let user = obj
        .get("user")
        .and_then(Json::as_usize)
        .ok_or("no user field")?;
    let recs = obj
        .get("recommendations")
        .and_then(Json::as_array)
        .ok_or("no recommendations field")?;
    let items = recs
        .iter()
        .map(|r| {
            let id = r
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("item without id")?;
            let score = r
                .get("score")
                .and_then(Json::as_f64)
                .ok_or("item without score")?;
            Ok((id as u32, score))
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok(Ranked { user, items })
}

/// Parse a `/recommend` or `/recommend/batch` body into per-user lists.
pub fn parse_ranked(body: &str) -> Result<Vec<Ranked>, String> {
    let doc = json::parse(body)?;
    match doc.get("results").and_then(Json::as_array) {
        Some(results) => results.iter().map(ranked_from).collect(),
        None => Ok(vec![ranked_from(&doc)?]),
    }
}

/// The rules a served list must satisfy: `k` items (at most `k`, at
/// least one, from the cascaded beam), scores never rising, no id
/// twice, nothing the user already bought. Scores are rendered to four
/// decimals, so the id tie-break is checked against the oracle at
/// quiesce, not here.
pub fn check_ranked(
    r: &Ranked,
    k: usize,
    exact_k: bool,
    purchased: &[taxrec_taxonomy::ItemId],
) -> Result<(), String> {
    let n = r.items.len();
    if (exact_k && n != k) || n > k || n == 0 {
        return Err(format!("user {}: {n} items for k = {k}", r.user));
    }
    if r.items.windows(2).any(|w| w[0].1 < w[1].1) {
        return Err(format!("user {}: scores rise", r.user));
    }
    let mut ids: Vec<u32> = r.items.iter().map(|i| i.0).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("user {}: an item twice", r.user));
    }
    if let Some(bought) = ids.iter().find(|&&id| {
        purchased
            .binary_search(&taxrec_taxonomy::ItemId(id))
            .is_ok()
    }) {
        return Err(format!("user {}: purchased item {bought} served", r.user));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxrec_taxonomy::ItemId;

    const BODY: &str = "{\"user\":3,\"recommendations\":[\
        {\"item\":\"i9\",\"id\":9,\"score\":1.5000},{\"item\":\"i2\",\"id\":2,\"score\":1.5000},\
        {\"item\":\"i4\",\"id\":4,\"score\":-0.2500}]}";

    #[test]
    fn parses_single_and_batch_bodies() {
        let single = parse_ranked(BODY).unwrap();
        assert_eq!(
            single,
            vec![Ranked {
                user: 3,
                items: vec![(9, 1.5), (2, 1.5), (4, -0.25)]
            }]
        );
        let batch = format!("{{\"batch\":2,\"epoch\":7,\"results\":[{BODY},{BODY}]}}");
        assert_eq!(parse_ranked(&batch).unwrap().len(), 2);
        assert!(parse_ranked("{\"error\":\"user out of range\"}").is_err());
    }

    #[test]
    fn rules_reject_each_kind_of_bad_list() {
        let ok = &parse_ranked(BODY).unwrap()[0];
        assert_eq!(check_ranked(ok, 3, true, &[ItemId(5)]), Ok(()));
        assert!(check_ranked(ok, 4, true, &[]).is_err(), "too few");
        assert_eq!(
            check_ranked(ok, 4, false, &[]),
            Ok(()),
            "beam may return fewer"
        );
        assert!(check_ranked(ok, 2, false, &[]).is_err(), "too many");
        assert!(
            check_ranked(ok, 3, true, &[ItemId(2), ItemId(7)]).is_err(),
            "purchased"
        );
        let rising = Ranked {
            user: 0,
            items: vec![(1, 0.1), (2, 0.2)],
        };
        assert!(check_ranked(&rising, 2, true, &[]).is_err());
        let twice = Ranked {
            user: 0,
            items: vec![(1, 0.2), (1, 0.2)],
        };
        assert!(check_ranked(&twice, 2, true, &[]).is_err());
    }
}
