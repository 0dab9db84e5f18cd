//! The trace-side packet encoder: what the IPT hardware block does.
//!
//! The encoder maintains the two pieces of hardware state that give IPT its
//! compression (the paper's "less than 1 bit per retired instruction"):
//!
//! * a **TNT shift register** accumulating up to 6 conditional-branch
//!   outcomes per emitted byte, flushed when full or when a packet that must
//!   stay ordered with respect to the branches (TIP/FUP/PSB/…) is emitted;
//! * the **last-IP register** against which target addresses are compressed
//!   (2/4/6-byte payloads instead of full 8-byte IPs).

use crate::packet::{wire, IpCompression, TntSeq};

/// Receives encoded packet bytes (a ToPA writer, a plain `Vec<u8>`, …).
pub trait TraceSink {
    /// Appends one encoded packet.
    fn write_packet(&mut self, bytes: &[u8]);

    /// Whether the sink has stopped accepting data (e.g. a ToPA STOP region
    /// filled). Encoders drop packets while the sink is stopped, exactly as
    /// the hardware does.
    fn is_stopped(&self) -> bool {
        false
    }
}

impl TraceSink for Vec<u8> {
    fn write_packet(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn write_packet(&mut self, bytes: &[u8]) {
        (**self).write_packet(bytes);
    }

    fn is_stopped(&self) -> bool {
        (**self).is_stopped()
    }
}

/// Stateful packet encoder.
///
/// # Examples
///
/// ```
/// use fg_ipt::encode::PacketEncoder;
/// use fg_ipt::decode::PacketParser;
/// use fg_ipt::packet::Packet;
///
/// let mut enc = PacketEncoder::new(Vec::new());
/// enc.tnt_bit(true);
/// enc.tip(0x905);
/// let bytes = enc.into_sink();
/// let pkts: Vec<Packet> = PacketParser::new(&bytes).map(|p| p.unwrap().packet).collect();
/// assert_eq!(pkts.len(), 2); // TNT(T) then TIP(0x905)
/// ```
#[derive(Debug)]
pub struct PacketEncoder<S> {
    sink: S,
    last_ip: u64,
    tnt: TntSeq,
    bytes_emitted: u64,
    bytes_since_psb: u64,
}

impl<S: TraceSink> PacketEncoder<S> {
    /// Creates an encoder writing to `sink`.
    pub fn new(sink: S) -> PacketEncoder<S> {
        PacketEncoder { sink, last_ip: 0, tnt: TntSeq::new(), bytes_emitted: 0, bytes_since_psb: 0 }
    }

    /// Total bytes emitted so far.
    #[inline]
    pub fn bytes_emitted(&self) -> u64 {
        self.bytes_emitted
    }

    /// Bytes emitted since the last PSB (drives PSB cadence).
    #[inline]
    pub fn bytes_since_psb(&self) -> u64 {
        self.bytes_since_psb
    }

    /// Access to the sink.
    #[inline]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink.
    #[inline]
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the encoder, flushing pending TNT bits, and returns the sink.
    pub fn into_sink(mut self) -> S {
        self.flush_tnt();
        self.sink
    }

    #[inline]
    fn emit(&mut self, bytes: &[u8]) {
        if self.sink.is_stopped() {
            return;
        }
        self.sink.write_packet(bytes);
        self.bytes_emitted += bytes.len() as u64;
        self.bytes_since_psb += bytes.len() as u64;
    }

    /// Records a conditional-branch outcome, emitting a short TNT packet
    /// when the shift register fills. Forced inline: most CoFIs are
    /// conditional branches, and this is all the work they cost.
    #[inline(always)]
    pub fn tnt_bit(&mut self, taken: bool) {
        self.tnt.push(taken);
        if self.tnt.is_short_full() {
            self.flush_tnt();
        }
    }

    /// Flushes any buffered TNT bits as a short TNT packet.
    pub fn flush_tnt(&mut self) {
        let n = self.tnt.len();
        if n == 0 {
            return;
        }
        debug_assert!(n <= crate::packet::SHORT_TNT_MAX);
        // Shift-register value with stop bit, then header bit 0 = 0.
        let value = (1u64 << n) | self.tnt.raw_bits();
        let byte = (value << 1) as u8;
        self.emit(&[byte]);
        self.tnt = TntSeq::new();
    }

    fn ip_packet(&mut self, opcode5: u8, ip: u64) {
        self.flush_tnt();
        let comp = choose_compression(ip, self.last_ip);
        let mut buf = [0u8; 9];
        buf[0] = (comp.field() << 5) | opcode5;
        let n = comp.payload_len();
        buf[1..=n].copy_from_slice(&ip.to_le_bytes()[..n]);
        let len = 1 + n;
        self.emit(&buf[..len]);
        self.last_ip = ip;
    }

    /// Emits a TIP packet for an indirect branch / return target.
    pub fn tip(&mut self, ip: u64) {
        self.ip_packet(wire::TIP_OP, ip);
    }

    /// Emits a TIP.PGE (tracing enabled) packet.
    pub fn tip_pge(&mut self, ip: u64) {
        self.ip_packet(wire::TIP_PGE_OP, ip);
    }

    /// Emits a TIP.PGD (tracing disabled) packet; `None` suppresses the IP.
    pub fn tip_pgd(&mut self, ip: Option<u64>) {
        match ip {
            Some(ip) => self.ip_packet(wire::TIP_PGD_OP, ip),
            None => {
                self.flush_tnt();
                self.emit(&[(IpCompression::Suppressed.field() << 5) | wire::TIP_PGD_OP]);
            }
        }
    }

    /// Emits a FUP (flow update) packet.
    pub fn fup(&mut self, ip: u64) {
        self.ip_packet(wire::FUP_OP, ip);
    }

    /// Emits a PIP packet recording a CR3 write.
    ///
    /// # Panics
    ///
    /// Panics if `cr3` is not 32-byte aligned (real CR3s are page-aligned).
    pub fn pip(&mut self, cr3: u64) {
        assert_eq!(cr3 & 0x1f, 0, "CR3 must be at least 32-byte aligned");
        self.flush_tnt();
        let payload = cr3 >> 5;
        let mut buf = [0u8; 8];
        buf[0] = wire::EXT;
        buf[1] = wire::EXT_PIP;
        buf[2..8].copy_from_slice(&payload.to_le_bytes()[..6]);
        self.emit(&buf);
    }

    /// Emits a CBR (core-to-bus ratio) packet.
    pub fn cbr(&mut self, ratio: u8) {
        self.emit(&[wire::EXT, wire::EXT_CBR, ratio, 0]);
    }

    /// Emits a MODE.Exec packet (single 64-bit mode in this reproduction).
    pub fn mode_exec(&mut self) {
        self.emit(&[wire::MODE, 0b0000_0001]);
    }

    /// Emits an OVF packet (tracing resumed after internal buffer overflow).
    pub fn ovf(&mut self) {
        self.flush_tnt();
        self.emit(&[wire::EXT, wire::EXT_OVF]);
    }

    /// Emits one PAD byte.
    pub fn pad(&mut self) {
        self.emit(&[wire::PAD]);
    }

    /// Emits a full PSB+ synchronisation sequence:
    /// `PSB, [PIP], MODE.Exec, CBR, [FUP sync-ip], PSBEND`.
    ///
    /// Resets IP compression, as the hardware does, so a decoder can start
    /// cold from any PSB.
    pub fn psb_plus(&mut self, sync_ip: Option<u64>, cr3: Option<u64>) {
        self.flush_tnt();
        let mut psb = [0u8; wire::PSB_LEN];
        for i in 0..wire::PSB_LEN / 2 {
            psb[2 * i] = wire::EXT;
            psb[2 * i + 1] = wire::EXT_PSB;
        }
        self.emit(&psb);
        self.last_ip = 0;
        self.bytes_since_psb = 0;
        if let Some(cr3) = cr3 {
            self.pip(cr3);
        }
        self.mode_exec();
        self.cbr(40);
        if let Some(ip) = sync_ip {
            self.fup(ip);
        }
        self.emit(&[wire::EXT, wire::EXT_PSBEND]);
        // Everything in PSB+ belongs to the sync point.
        self.bytes_since_psb = 0;
    }
}

/// Picks the densest IP compression reproducible against `last_ip`.
fn choose_compression(ip: u64, last_ip: u64) -> IpCompression {
    if ip >> 16 == last_ip >> 16 {
        IpCompression::Update16
    } else if ip >> 32 == last_ip >> 32 {
        IpCompression::Update32
    } else if sext48(ip) == ip {
        IpCompression::Sext48
    } else {
        IpCompression::Full
    }
}

/// Sign-extends a 48-bit value to 64 bits.
pub(crate) fn sext48(v: u64) -> u64 {
    ((v as i64) << 16 >> 16) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_tnt_wire_format() {
        // Paper Table 2: TNT(1) = one taken bit.
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tnt_bit(true);
        let bytes = enc.into_sink();
        // value = stop(1) at bit1, payload bit0 = 1 → 0b11; <<1 → 0b110.
        assert_eq!(bytes, vec![0b110]);
    }

    #[test]
    fn short_tnt_not_taken() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tnt_bit(false);
        let bytes = enc.into_sink();
        assert_eq!(bytes, vec![0b100]);
    }

    #[test]
    fn tnt_auto_flush_at_six_bits() {
        let mut enc = PacketEncoder::new(Vec::new());
        for _ in 0..6 {
            enc.tnt_bit(true);
        }
        assert_eq!(enc.bytes_emitted(), 1, "flushed exactly once at 6 bits");
        let bytes = enc.into_sink();
        assert_eq!(bytes.len(), 1);
        // stop at bit 7, six taken bits at 6..1, header 0 → 0b1111_1110.
        assert_eq!(bytes[0], 0b1111_1110);
    }

    #[test]
    fn tnt_flushes_before_tip_to_preserve_order() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tnt_bit(true);
        enc.tip(0x905);
        let bytes = enc.into_sink();
        // First byte must be the TNT packet (even header bit), then TIP.
        assert_eq!(bytes[0] & 1, 0);
        assert_eq!(bytes[1] & 0x1f, wire::TIP_OP);
    }

    #[test]
    fn tip_first_emission_compresses_against_zero() {
        // last_ip starts at 0; the upper 32 bits of a low address match it,
        // so the hardware picks the 4-byte update form.
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip(0x40_0000);
        let bytes = enc.into_sink();
        assert_eq!(bytes.len(), 5);
        assert_eq!(bytes[0] >> 5, IpCompression::Update32.field());
    }

    #[test]
    fn tip_high_address_uses_sext48() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip(0x7fff_0000_1234);
        let bytes = enc.into_sink();
        assert_eq!(bytes.len(), 7);
        assert_eq!(bytes[0] >> 5, IpCompression::Sext48.field());
    }

    #[test]
    fn tip_same_64k_page_compresses_to_two_bytes() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip(0x40_0000);
        enc.tip(0x40_0108);
        let bytes = enc.into_sink();
        // 5 bytes for the first, 3 for the second.
        assert_eq!(bytes.len(), 8);
        assert_eq!(bytes[5] >> 5, IpCompression::Update16.field());
        assert_eq!(&bytes[6..8], &0x0108u16.to_le_bytes());
    }

    #[test]
    fn tip_cross_4g_uses_update32() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip(0x40_0000);
        enc.tip(0x1000_0000);
        let bytes = enc.into_sink();
        assert_eq!(bytes[5] >> 5, IpCompression::Update32.field());
        assert_eq!(bytes.len(), 5 + 5);
    }

    #[test]
    fn suppressed_pgd_is_single_byte() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip_pgd(None);
        let bytes = enc.into_sink();
        assert_eq!(bytes, vec![wire::TIP_PGD_OP]);
    }

    #[test]
    fn psb_plus_layout() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.psb_plus(Some(0x40_0000), Some(0x1000));
        assert_eq!(enc.bytes_since_psb(), 0);
        let bytes = enc.into_sink();
        assert_eq!(&bytes[..2], &[wire::EXT, wire::EXT_PSB]);
        assert_eq!(&bytes[14..16], &[wire::EXT, wire::EXT_PSB]);
        // Ends with PSBEND.
        assert_eq!(&bytes[bytes.len() - 2..], &[wire::EXT, wire::EXT_PSBEND]);
    }

    #[test]
    fn psb_resets_ip_compression() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.tip(0x40_0000);
        enc.psb_plus(None, None);
        let before = enc.bytes_emitted();
        enc.tip(0x40_0000); // same IP, but last_ip was reset
        let bytes = enc.into_sink();
        let tip2 = &bytes[before as usize..];
        // Without the reset this would compress to the 2-byte update form.
        assert_eq!(tip2[0] >> 5, IpCompression::Update32.field(), "re-sync after PSB");
    }

    #[test]
    fn pip_payload_shifts_cr3() {
        let mut enc = PacketEncoder::new(Vec::new());
        enc.pip(0x1234_0000);
        let bytes = enc.into_sink();
        assert_eq!(&bytes[..2], &[wire::EXT, wire::EXT_PIP]);
        let mut payload = [0u8; 8];
        payload[..6].copy_from_slice(&bytes[2..8]);
        assert_eq!(u64::from_le_bytes(payload) << 5, 0x1234_0000);
    }

    #[test]
    fn sext48_behaviour() {
        assert_eq!(sext48(0x0000_7fff_ffff_ffff), 0x0000_7fff_ffff_ffff);
        assert_eq!(sext48(0x0000_8000_0000_0000), 0xffff_8000_0000_0000);
        assert_eq!(sext48(0x40_0000), 0x40_0000);
    }

    #[test]
    fn stopped_sink_drops_packets() {
        struct Stopper(Vec<u8>, bool);
        impl TraceSink for Stopper {
            fn write_packet(&mut self, b: &[u8]) {
                self.0.extend_from_slice(b);
            }
            fn is_stopped(&self) -> bool {
                self.1
            }
        }
        let mut enc = PacketEncoder::new(Stopper(Vec::new(), true));
        enc.tip(0x1234);
        assert_eq!(enc.bytes_emitted(), 0);
        assert!(enc.into_sink().0.is_empty());
    }
}
