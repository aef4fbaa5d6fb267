//! The public NoC façade: one or two sub-networks behind a single
//! inject/tick/deliver interface.

use cmp_common::geometry::MeshShape;
use cmp_common::stats::Counter;
use cmp_common::types::Cycle;
use cmp_common::units::Watts;

use crate::config::{ChannelKind, NocConfig, CHANNEL_KINDS};
use crate::energy::{NocEnergy, RouterEnergyModel};
use crate::message::{Delivered, Message};
use crate::stats::NocStats;
use crate::subnet::SubNet;

/// Injection failure: the message named a channel this network
/// configuration does not provide. The sender's mapping policy is a pure
/// function of the configuration, so this is only reachable through
/// corruption — the simulator converts it into a structured error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelUnavailable {
    /// The channel kind the message asked for.
    pub channel: ChannelKind,
}

impl std::fmt::Display for ChannelUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel {:?} not configured", self.channel)
    }
}

impl std::error::Error for ChannelUnavailable {}

/// The on-chip network: a set of parallel flit-level mesh sub-networks,
/// one per physical channel kind.
#[derive(Clone)]
pub struct Noc<P> {
    config: NocConfig,
    mesh: MeshShape,
    subnets: Vec<SubNet<P>>,
    /// `channel_map[ChannelKind::index()]` → subnet index.
    channel_map: [Option<usize>; CHANNEL_KINDS],
    /// Fault-delayed messages parked until their release cycle, in
    /// insertion order (the fault layer hands over post-compression
    /// messages so codec state is not perturbed by re-processing).
    held: std::collections::VecDeque<(Cycle, Message<P>)>,
    energy_model: RouterEnergyModel,
    /// Messages injected (delivered + in flight). Deliveries, latency and
    /// flit hops are owned by the sub-networks (see [`SubNet::stats`]);
    /// injection happens here, before channel dispatch, so its counter
    /// lives here too.
    injected: Counter,
}

impl<P> Noc<P> {
    /// Build the network for `config` on `mesh`.
    pub fn new(mesh: MeshShape, config: NocConfig) -> Self {
        config.validate().expect("valid NoC config");
        let energy_model = RouterEnergyModel::default();
        let subnets: Vec<SubNet<P>> = config
            .channels
            .iter()
            .map(|spec| SubNet::new(*spec, mesh, config.clock_hz, &energy_model))
            .collect();
        let mut channel_map = [None; CHANNEL_KINDS];
        for (i, spec) in config.channels.iter().enumerate() {
            channel_map[spec.kind.index()] = Some(i);
        }
        Noc {
            config,
            mesh,
            subnets,
            channel_map,
            held: std::collections::VecDeque::new(),
            energy_model,
            injected: Counter::default(),
        }
    }

    /// The network's configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Whether a channel kind exists in this configuration.
    pub fn has_channel(&self, kind: ChannelKind) -> bool {
        self.channel_map[kind.index()].is_some()
    }

    /// Inject a message at its source tile. Fails if the message names a
    /// channel this configuration does not provide — the sender's mapping
    /// policy must respect [`Noc::has_channel`].
    pub fn inject(&mut self, now: Cycle, msg: Message<P>) -> Result<(), ChannelUnavailable> {
        let Some(idx) = self.channel_map[msg.channel.index()] else {
            return Err(ChannelUnavailable {
                channel: msg.channel,
            });
        };
        self.injected.inc();
        self.subnets[idx].inject(now, msg);
        Ok(())
    }

    /// Park a message until `release_at`, then inject it (fault-injection
    /// delay hook). The message is already compressed/sized, so holding it
    /// here — rather than at the sender — leaves codec state untouched.
    pub fn inject_held(
        &mut self,
        release_at: Cycle,
        msg: Message<P>,
    ) -> Result<(), ChannelUnavailable> {
        if self.channel_map[msg.channel.index()].is_none() {
            return Err(ChannelUnavailable {
                channel: msg.channel,
            });
        }
        self.held.push_back((release_at, msg));
        Ok(())
    }

    /// Fault-delayed messages not yet released.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Advance every sub-network one cycle and collect deliveries.
    pub fn tick(&mut self, now: Cycle) -> Vec<Delivered<P>> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// Advance one cycle, appending deliveries to `out` (allocation-free
    /// form of [`Noc::tick`] — the caller reuses its buffer). Sub-networks
    /// with nothing actionable at `now` are skipped outright, so a quiet
    /// channel costs nothing per cycle.
    pub fn tick_into(&mut self, now: Cycle, out: &mut Vec<Delivered<P>>) {
        self.release_held(now);
        for subnet in &mut self.subnets {
            if !subnet.has_work(now) {
                subnet.set_clock(now);
                continue;
            }
            subnet.tick(now);
            subnet.drain_delivered_into(out);
        }
    }

    /// The caller's clock jumps to `next` without ticking the cycles in
    /// between (the idle fast-forward, trusting
    /// [`Noc::next_event_cycle`]). Flits that arrive in the skipped
    /// cycles are buffered from then on — which a checkpoint taken
    /// before the next tick must know.
    pub fn advance_clock(&mut self, next: Cycle) {
        for subnet in &mut self.subnets {
            subnet.set_clock(next.saturating_sub(1));
        }
    }

    /// Re-inject fault-held messages whose release cycle has arrived.
    fn release_held(&mut self, now: Cycle) {
        if self.held.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= now {
                let (_, msg) = self.held.remove(i).expect("index in bounds");
                self.inject(now, msg).expect("validated when held");
            } else {
                i += 1;
            }
        }
    }

    /// True when no message is anywhere in the network.
    pub fn is_idle(&self) -> bool {
        self.held.is_empty() && self.subnets.iter().all(|s| s.is_idle())
    }

    /// Earliest cycle at which any sub-network can make progress
    /// (`None` when idle).
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        self.subnets
            .iter()
            .filter_map(|s| s.next_event_cycle(now))
            .chain(self.held.iter().map(|(at, _)| (*at).max(now + 1)))
            .min()
    }

    /// Per-tile congestion snapshot summed over sub-networks:
    /// `(messages queued at the NI, flits buffered in the router)`.
    /// Read-only; used for deadlock/violation dumps.
    pub fn tile_backlog(&self, tile: usize) -> (usize, u32) {
        self.subnets.iter().fold((0, 0), |(q, f), s| {
            (q + s.inj_queue_depth(tile), f + s.buffered_flits(tile))
        })
    }

    /// The longest-waiting message still traversing any sub-network, as
    /// `(injected_at, src, dst, class)`. Fault-held messages are not
    /// included (they have not been injected yet; see
    /// [`Noc::held_count`]). Read-only diagnostic for stall reports.
    pub fn oldest_in_flight(
        &self,
    ) -> Option<(
        Cycle,
        cmp_common::types::TileId,
        cmp_common::types::TileId,
        cmp_common::types::MessageClass,
    )> {
        self.subnets
            .iter()
            .filter_map(|s| s.oldest_in_flight())
            .min_by_key(|&(at, src, dst, _)| (at, src.index(), dst.index()))
    }

    /// Messages anywhere in the network (including fault-held ones).
    pub fn live_messages(&self) -> usize {
        self.subnets
            .iter()
            .map(|s| s.live_messages())
            .sum::<usize>()
            + self.held.len()
    }

    /// Dynamic energy accumulated so far: the per-sub-network accumulators
    /// summed in fixed sub-network order.
    pub fn energy(&self) -> NocEnergy {
        let mut total = NocEnergy::default();
        for s in &self.subnets {
            total.accumulate(s.energy());
        }
        total
    }

    /// Structural static power of this configuration.
    pub fn static_power(&self) -> Watts {
        NocEnergy::static_power(&self.config, &self.mesh, &self.energy_model)
    }

    /// Delivery statistics: the per-sub-network accounts merged in fixed
    /// sub-network order, plus the network-level injection counter.
    pub fn stats(&self) -> NocStats {
        let mut total = NocStats::new();
        for s in &self.subnets {
            total.merge(s.stats());
        }
        total.injected = self.injected;
        total
    }

    /// Total delivered messages — cheap (no histogram merge), for the
    /// per-iteration watchdog progress probe.
    pub fn delivered_total(&self) -> u64 {
        self.subnets.iter().map(|s| s.stats().delivered()).sum()
    }

    /// Flits sent per outgoing link of one sub-network, as
    /// `(tile, direction, flits)` triples — the raw material for
    /// utilisation heatmaps. `kind` must be configured.
    pub fn link_flit_counts(
        &self,
        kind: ChannelKind,
    ) -> Vec<(usize, cmp_common::geometry::Direction, u64)> {
        let idx = self.channel_map[kind.index()].expect("channel configured");
        let subnet = &self.subnets[idx];
        let mut out = Vec::new();
        for tile in 0..self.mesh.tiles() {
            for dir in cmp_common::geometry::Direction::LINKS {
                if self
                    .mesh
                    .neighbor(cmp_common::types::TileId::from(tile), dir)
                    .is_some()
                {
                    out.push((tile, dir, subnet.link_flits(tile, dir)));
                }
            }
        }
        out
    }
}

/// Config, mesh, channel map and the energy model are all configuration;
/// the sub-networks, fault-held messages and injection counter are state.
/// Sub-network count is fixed by the configuration, so each loads in place
/// in index order.
impl<P: cmp_common::persist::Persist> cmp_common::persist::PersistState for Noc<P> {
    fn save_state(&self, w: &mut cmp_common::persist::ByteWriter) {
        use cmp_common::persist::Persist;
        cmp_common::persist::save_state_slice(&self.subnets, w);
        self.held.save(w);
        self.injected.save(w);
    }
    fn load_state(
        &mut self,
        r: &mut cmp_common::persist::ByteReader,
    ) -> Result<(), cmp_common::persist::PersistError> {
        use cmp_common::persist::Persist;
        cmp_common::persist::load_state_slice(&mut self.subnets, r)?;
        self.held = Persist::load(r)?;
        self.injected = Persist::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmp_common::config::CmpConfig;
    use cmp_common::types::{MessageClass, TileId};
    use wire_model::wires::VlWidth;

    fn msg(src: usize, dst: usize, bytes: usize, ch: ChannelKind) -> Message<u32> {
        Message {
            src: TileId::from(src),
            dst: TileId::from(dst),
            class: if bytes > 11 {
                MessageClass::ResponseData
            } else {
                MessageClass::Request
            },
            wire_bytes: bytes,
            channel: ch,
            payload: 9,
        }
    }

    #[test]
    fn baseline_noc_round_trip() {
        let cfg = CmpConfig::default();
        let mut noc: Noc<u32> = Noc::new(cfg.mesh, NocConfig::baseline(&cfg.network, cfg.clock_hz));
        assert!(!noc.has_channel(ChannelKind::Vl));
        noc.inject(0, msg(0, 5, 67, ChannelKind::B)).unwrap();
        let mut delivered = Vec::new();
        for now in 0..100 {
            delivered.extend(noc.tick(now));
            if noc.is_idle() {
                break;
            }
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].message.payload, 9);
        assert_eq!(noc.stats().delivered(), 1);
    }

    #[test]
    fn heterogeneous_noc_runs_both_channels() {
        let cfg = CmpConfig::default();
        let mut noc: Noc<u32> = Noc::new(
            cfg.mesh,
            NocConfig::heterogeneous(&cfg.network, cfg.clock_hz, VlWidth::FourBytes),
        );
        assert!(noc.has_channel(ChannelKind::Vl));
        noc.inject(0, msg(0, 15, 67, ChannelKind::B)).unwrap();
        noc.inject(0, msg(0, 15, 4, ChannelKind::Vl)).unwrap();
        let mut delivered = Vec::new();
        for now in 0..100 {
            delivered.extend(noc.tick(now));
            if noc.is_idle() {
                break;
            }
        }
        assert_eq!(delivered.len(), 2);
        // the VL message (4 bytes) must arrive strictly earlier
        let vl = delivered
            .iter()
            .find(|d| d.message.channel == ChannelKind::Vl)
            .unwrap();
        let b = delivered
            .iter()
            .find(|d| d.message.channel == ChannelKind::B)
            .unwrap();
        assert!(
            vl.delivered_at < b.delivered_at,
            "VL {} should beat B {}",
            vl.delivered_at,
            b.delivered_at
        );
    }

    #[test]
    fn injecting_on_missing_channel_is_an_error() {
        let cfg = CmpConfig::default();
        let mut noc: Noc<u32> = Noc::new(cfg.mesh, NocConfig::baseline(&cfg.network, cfg.clock_hz));
        let err = noc.inject(0, msg(0, 1, 4, ChannelKind::Vl)).unwrap_err();
        assert_eq!(err.channel, ChannelKind::Vl);
        assert!(err.to_string().contains("not configured"));
        // held injection validates the channel up front too
        let err = noc
            .inject_held(10, msg(0, 1, 4, ChannelKind::Vl))
            .unwrap_err();
        assert_eq!(err.channel, ChannelKind::Vl);
        assert_eq!(
            noc.stats().injected.get(),
            0,
            "failed injections are not counted"
        );
    }

    #[test]
    fn held_messages_release_at_their_cycle() {
        let cfg = CmpConfig::default();
        let mut noc: Noc<u32> = Noc::new(cfg.mesh, NocConfig::baseline(&cfg.network, cfg.clock_hz));
        noc.inject_held(25, msg(0, 5, 67, ChannelKind::B)).unwrap();
        assert_eq!(noc.held_count(), 1);
        assert!(!noc.is_idle(), "a held message keeps the network live");
        assert_eq!(noc.next_event_cycle(0), Some(25));
        let mut delivered = Vec::new();
        let mut release_seen = None;
        for now in 0..200 {
            noc.tick_into(now, &mut delivered);
            if release_seen.is_none() && noc.held_count() == 0 {
                release_seen = Some(now);
            }
            if noc.is_idle() {
                break;
            }
        }
        assert_eq!(release_seen, Some(25), "held until exactly its cycle");
        assert_eq!(delivered.len(), 1);
        assert!(
            delivered[0].injected_at >= 25,
            "latency accounting starts at release, not at hold"
        );
    }

    #[test]
    fn static_power_reported() {
        let cfg = CmpConfig::default();
        let noc: Noc<u32> = Noc::new(cfg.mesh, NocConfig::baseline(&cfg.network, cfg.clock_hz));
        assert!(noc.static_power().value() > 0.0);
    }
}
