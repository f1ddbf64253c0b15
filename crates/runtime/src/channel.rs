//! Sequence-numbered FIFO channels with sender-side logs.
//!
//! The paper's assumption 4 ("consistent communications") requires that
//! every message from `Pᵢ` to `Pⱼ` is eventually received and that
//! messages arrive in send order — "the order can be kept easily, for
//! example, by time-stamping messages at the time of transmission".
//! [`LoggedSender`] stamps each message with a sequence number and
//! [`LoggedReceiver`] verifies gap-free in-order delivery, converting a
//! violated assumption into an explicit [`SeqError`] instead of silent
//! inconsistency.
//!
//! The sender additionally keeps a log of sent messages; §4's PRP
//! algorithm requires that "the messages sent to a process by Pᵢ′ prior
//! to Cᵢ′ have to be retained in the state saved" — [`LoggedSender::sent_since`]
//! is that retention hook.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

/// A sequencing violation observed by the receiver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqError {
    /// A message arrived out of order (gap or duplicate).
    OutOfOrder {
        /// Sequence number the receiver expected next.
        expected: u64,
        /// Sequence number actually received.
        got: u64,
    },
    /// The channel disconnected (peer dropped).
    Disconnected,
    /// No message arrived within the timeout.
    Timeout,
}

impl std::fmt::Display for SeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqError::OutOfOrder { expected, got } => {
                write!(f, "out-of-order message: expected #{expected}, got #{got}")
            }
            SeqError::Disconnected => write!(f, "peer disconnected"),
            SeqError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for SeqError {}

/// A stamped message.
#[derive(Clone, Debug)]
pub struct Stamped<T> {
    /// Gap-free per-channel sequence number, starting at 0.
    pub seq: u64,
    /// The payload.
    pub payload: T,
}

/// The sending half: stamps, logs, sends.
pub struct LoggedSender<T> {
    tx: Sender<Stamped<T>>,
    next_seq: u64,
    log: Vec<Stamped<T>>,
}

/// The receiving half: verifies the sequence.
pub struct LoggedReceiver<T> {
    rx: Receiver<Stamped<T>>,
    expected: u64,
}

/// Creates a logged FIFO channel.
pub fn logged_pair<T: Clone>() -> (LoggedSender<T>, LoggedReceiver<T>) {
    let (tx, rx) = channel();
    (
        LoggedSender {
            tx,
            next_seq: 0,
            log: Vec::new(),
        },
        LoggedReceiver { rx, expected: 0 },
    )
}

impl<T: Clone> LoggedSender<T> {
    /// Stamps and sends `payload`; returns its sequence number.
    ///
    /// # Panics
    /// Panics if the receiver has been dropped — in this runtime a
    /// vanished peer is a harness bug, not a recoverable condition.
    pub fn send(&mut self, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = Stamped {
            seq,
            payload: payload.clone(),
        };
        self.log.push(Stamped { seq, payload });
        self.tx.send(msg).expect("receiver dropped");
        seq
    }

    /// Number of messages sent so far.
    pub fn sent_count(&self) -> u64 {
        self.next_seq
    }

    /// Clones of all messages with `seq >= from` — the retention hook
    /// for saving in-flight messages alongside a PRP.
    pub fn sent_since(&self, from: u64) -> Vec<Stamped<T>> {
        self.log.iter().filter(|m| m.seq >= from).cloned().collect()
    }

    /// Drops log entries older than `before` (acknowledged/committed).
    pub fn truncate_log(&mut self, before: u64) {
        self.log.retain(|m| m.seq >= before);
    }
}

impl<T> LoggedReceiver<T> {
    /// Receives the next message, verifying the sequence.
    pub fn recv(&mut self) -> Result<T, SeqError> {
        match self.rx.recv() {
            Ok(m) => self.check(m),
            Err(_) => Err(SeqError::Disconnected),
        }
    }

    /// Receives with a timeout.
    pub fn recv_timeout(&mut self, d: Duration) -> Result<T, SeqError> {
        match self.rx.recv_timeout(d) {
            Ok(m) => self.check(m),
            Err(RecvTimeoutError::Timeout) => Err(SeqError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(SeqError::Disconnected),
        }
    }

    /// Non-blocking receive; `Ok(None)` when no message is waiting.
    pub fn try_recv(&mut self) -> Result<Option<T>, SeqError> {
        match self.rx.try_recv() {
            Ok(m) => self.check(m).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(SeqError::Disconnected),
        }
    }

    fn check(&mut self, m: Stamped<T>) -> Result<T, SeqError> {
        if m.seq != self.expected {
            return Err(SeqError::OutOfOrder {
                expected: self.expected,
                got: m.seq,
            });
        }
        self.expected += 1;
        Ok(m.payload)
    }

    /// Sequence number the receiver expects next (= messages delivered).
    pub fn delivered(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_is_preserved() {
        let (mut tx, mut rx) = logged_pair();
        for k in 0..100 {
            tx.send(k);
        }
        for k in 0..100 {
            assert_eq!(rx.recv().unwrap(), k);
        }
        assert_eq!(rx.delivered(), 100);
    }

    #[test]
    fn cross_thread_delivery() {
        let (mut tx, mut rx) = logged_pair();
        let producer = thread::spawn(move || {
            for k in 0..1000 {
                tx.send(k);
            }
            tx
        });
        let mut got = Vec::new();
        for _ in 0..1000 {
            got.push(rx.recv().unwrap());
        }
        let tx = producer.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert_eq!(tx.sent_count(), 1000);
    }

    #[test]
    fn sent_since_retains_in_flight_messages() {
        let (mut tx, _rx) = logged_pair();
        for k in 0..10 {
            tx.send(format!("m{k}"));
        }
        let tail = tx.sent_since(7);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].seq, 7);
        assert_eq!(tail[0].payload, "m7");
        tx.truncate_log(9);
        assert_eq!(tx.sent_since(0).len(), 1);
    }

    #[test]
    fn try_recv_empty_is_none() {
        let (mut tx, mut rx) = logged_pair::<u32>();
        assert_eq!(rx.try_recv().unwrap(), None);
        tx.send(9);
        assert_eq!(rx.try_recv().unwrap(), Some(9));
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn timeout_reports() {
        let (_tx, mut rx) = logged_pair::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(SeqError::Timeout)
        );
    }

    #[test]
    fn disconnect_reports() {
        let (tx, mut rx) = logged_pair::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(SeqError::Disconnected));
    }
}
