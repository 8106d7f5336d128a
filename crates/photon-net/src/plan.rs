//! The run plan shipped from coordinator to clients at admission.

use photon_core::{FaultPlan, FaultSpec, FederationConfig};
use serde::{Deserialize, Serialize};

/// Everything a client process needs to participate in a run: the
/// federation configuration (model shape, optimizer, seed — the seed
/// drives deterministic client provisioning and session tokens), its
/// data budget, the round horizon, and the shared fault plan so client
/// and coordinator inject the same process faults at the same rounds.
///
/// Serialized as JSON into [`photon_comms::Message::RunSync`], which
/// treats it as opaque bytes — the wire format does not depend on these
/// types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunPlan {
    /// Federation configuration (identical on every process).
    pub cfg: FederationConfig,
    /// Tokens each client provisions from its data source.
    pub tokens_per_client: usize,
    /// Rounds the run will commit.
    pub rounds: u64,
    /// The shared fault schedule, if any: process faults (netcrash,
    /// nethang, coordkill) and the client faults both sides honour.
    #[serde(default)]
    pub faults: Option<FaultSpec>,
}

impl RunPlan {
    /// Serializes for the `RunSync` payload.
    ///
    /// # Panics
    /// Serialization of these plain-data types cannot fail.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("RunPlan serialization cannot fail")
            .into_bytes()
    }

    /// The fault schedule both sides expand from the plan, identically.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        let spec = self.faults.as_ref()?;
        Some(spec.plan_for(&self.cfg, self.rounds))
    }

    /// Parses a `RunSync` payload and validates its configuration and
    /// fault spec, so a hostile or corrupt plan is refused here rather
    /// than panicking when a client expands it.
    ///
    /// # Errors
    /// A human-readable message when the bytes are not a valid plan.
    pub fn from_json_bytes(bytes: &[u8]) -> Result<RunPlan, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("plan not utf-8: {e}"))?;
        let plan: RunPlan =
            serde_json::from_str(text).map_err(|e| format!("plan not valid json: {e}"))?;
        plan.validate().map_err(|e| format!("plan invalid: {e}"))?;
        Ok(plan)
    }

    /// Validates the configuration and the fault spec.
    ///
    /// # Errors
    /// The first rule either breaks.
    pub fn validate(&self) -> Result<(), String> {
        self.cfg.validate().map_err(|e| e.to_string())?;
        match &self.faults {
            Some(faults) => faults.validate().map_err(|e| format!("fault spec: {e}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_nn::ModelConfig;

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = RunPlan {
            cfg: FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 3),
            tokens_per_client: 4_096,
            rounds: 5,
            faults: Some(FaultSpec::parse("netcrash@r1c0,coordkill@r2").unwrap()),
        };
        let bytes = plan.to_json_bytes();
        let back = RunPlan::from_json_bytes(&bytes).unwrap();
        assert_eq!(back, plan);
        assert!(RunPlan::from_json_bytes(b"{nope").is_err());
        assert!(RunPlan::from_json_bytes(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn hostile_fault_spec_is_refused_not_panicked_on() {
        let plan = RunPlan {
            cfg: FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 3),
            tokens_per_client: 4_096,
            rounds: 5,
            faults: Some(FaultSpec::parse("crash=0.5").unwrap()),
        };
        let json = String::from_utf8(plan.to_json_bytes()).unwrap();
        assert!(json.contains("\"p_crash\":0.5"), "{json}");
        let hostile = json.replace("\"p_crash\":0.5", "\"p_crash\":2.0");
        let err = std::panic::catch_unwind(|| RunPlan::from_json_bytes(hostile.as_bytes()))
            .expect("parsing a hostile plan must not panic")
            .unwrap_err();
        assert!(err.contains("crash=2"), "{err}");
        // A configuration that fails its own validation is refused too.
        let mut bad = plan.clone();
        bad.cfg.local_steps = 0;
        assert!(RunPlan::from_json_bytes(&bad.to_json_bytes()).is_err());
    }
}
