//! [`HookChain`]: several defenses stacked on one controller.

use dlk_dram::{DramDevice, RowAddr};
use dlk_memctrl::{DefenseHook, HookAction, MemRequest};

/// Several hooks stacked on one controller: the first non-`Allow`
/// verdict wins, every hook observes every activation, and lookup
/// latencies add up (each defense is separate hardware on the request
/// path).
pub struct HookChain {
    hooks: Vec<Box<dyn DefenseHook>>,
    name: String,
}

impl HookChain {
    /// Chains hooks in consultation order.
    pub fn new(hooks: Vec<Box<dyn DefenseHook>>) -> Self {
        let name = hooks.iter().map(|h| h.name().to_owned()).collect::<Vec<_>>().join("+");
        Self { hooks, name }
    }

    /// The chained hooks, in consultation order.
    pub fn hooks(&self) -> &[Box<dyn DefenseHook>] {
        &self.hooks
    }
}

impl DefenseHook for HookChain {
    fn before_access(
        &mut self,
        request: &MemRequest,
        target: RowAddr,
        dram: &mut DramDevice,
    ) -> HookAction {
        let mut verdict = HookAction::Allow;
        for hook in &mut self.hooks {
            match hook.before_access(request, target, dram) {
                HookAction::Allow => {}
                action => {
                    verdict = action;
                    break;
                }
            }
        }
        verdict
    }

    fn on_activate(&mut self, row: RowAddr, dram: &mut DramDevice) {
        for hook in &mut self.hooks {
            hook.on_activate(row, dram);
        }
    }

    fn check_latency(&self) -> u64 {
        self.hooks.iter().map(|h| h.check_latency()).sum()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DefenseSpec;
    use dlk_dram::{DramConfig, DramGeometry};
    use dlk_memctrl::{AddressMapper, MappingScheme};

    #[test]
    fn chain_first_verdict_wins_and_latency_sums() {
        let mapper = AddressMapper::new(DramGeometry::tiny(), MappingScheme::BankSequential);
        let guarded = [(10 * 64u64, 11 * 64u64)];
        let locker = DefenseSpec::locker_data_rows().mount(&mapper, &guarded).unwrap();
        let graphene = DefenseSpec::graphene(64, 4).mount(&mapper, &guarded).unwrap();
        let mut chain = HookChain::new(vec![locker, graphene]);
        assert_eq!(chain.name(), "dram-locker+graphene");
        assert_eq!(chain.check_latency(), 2);
        let mut dram = DramDevice::new(DramConfig::tiny_for_tests());
        let locked = RowAddr::new(0, 0, 10);
        let request = MemRequest::read(10 * 64, 1).untrusted();
        assert_eq!(chain.before_access(&request, locked, &mut dram), HookAction::Deny);
    }
}
