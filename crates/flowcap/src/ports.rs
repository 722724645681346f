//! Well-known Hadoop service ports.
//!
//! These are the default ports of a Hadoop 2.x deployment, which is what
//! the paper's testbed ran and what the port-based classifier keys on.
//! Ephemeral client-side ports are allocated from
//! [`EPHEMERAL_BASE`] upward by the simulator.

/// NameNode client RPC (`fs.defaultFS`, default 8020).
pub const NAMENODE_RPC: u16 = 8020;

/// NameNode HTTP UI (50070) — present for completeness.
pub const NAMENODE_HTTP: u16 = 50070;

/// DataNode data transfer port (`dfs.datanode.address`, default 50010).
/// Both HDFS reads and writes move their bulk bytes over this port.
pub const DATANODE_XFER: u16 = 50010;

/// DataNode IPC port (50020): block-recovery and client metadata calls.
pub const DATANODE_IPC: u16 = 50020;

/// MapReduce ShuffleHandler (`mapreduce.shuffle.port`, default 13562).
/// Reducers fetch map output segments over this port.
pub const SHUFFLE: u16 = 13562;

/// Broadcast-edge distribution port used by the DAG job model for
/// small-side payloads replicated to every consumer task (fragment
/// joins, Pig replicated joins, Spark-style broadcast variables).
/// Keddah pins it next to the shuffle port so the classifier can label
/// the traffic; real deployments serve it from the same ShuffleHandler.
pub const BROADCAST: u16 = 13563;

/// ResourceManager scheduler address (8030): ApplicationMaster ↔ RM.
pub const RM_SCHEDULER: u16 = 8030;

/// ResourceManager resource-tracker address (8031): NodeManager heartbeats.
pub const RM_TRACKER: u16 = 8031;

/// ResourceManager client address (8032): job submission.
pub const RM_CLIENT: u16 = 8032;

/// ResourceManager admin address (8033).
pub const RM_ADMIN: u16 = 8033;

/// NodeManager container-management address (default 0 → conventionally
/// 45454 in distributions that pin it; the AM contacts this to launch
/// containers).
pub const NM_CONTAINER: u16 = 45454;

/// MapReduce ApplicationMaster RPC port used by the simulator for
/// task ↔ AM umbilical traffic (ephemeral in real deployments; pinned here
/// so the classifier can label it as control traffic).
pub const AM_UMBILICAL: u16 = 45455;

/// First ephemeral (client-side) port the simulator hands out.
pub const EPHEMERAL_BASE: u16 = 32768;

/// Returns true if `port` belongs to a Hadoop control-plane service
/// (RPC, heartbeats, job submission, umbilical) rather than a data-plane
/// transfer.
#[must_use]
pub fn is_control_port(port: u16) -> bool {
    matches!(
        port,
        NAMENODE_RPC
            | NAMENODE_HTTP
            | DATANODE_IPC
            | RM_SCHEDULER
            | RM_TRACKER
            | RM_CLIENT
            | RM_ADMIN
            | NM_CONTAINER
            | AM_UMBILICAL
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_ports_are_control() {
        for p in [
            NAMENODE_RPC,
            DATANODE_IPC,
            RM_SCHEDULER,
            RM_TRACKER,
            RM_CLIENT,
            RM_ADMIN,
            NM_CONTAINER,
            AM_UMBILICAL,
        ] {
            assert!(is_control_port(p), "{p} should be control");
        }
    }

    #[test]
    fn data_ports_are_not_control() {
        assert!(!is_control_port(DATANODE_XFER));
        assert!(!is_control_port(SHUFFLE));
        assert!(!is_control_port(BROADCAST));
    }
}
