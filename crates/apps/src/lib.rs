//! # corm-apps — the paper's evaluation applications
//!
//! The five workloads of *Compiler Optimized Remote Method Invocation*
//! §5, written in MiniParty:
//!
//! | app          | paper artifact | source                         |
//! |--------------|----------------|--------------------------------|
//! | linked_list  | Table 1, Fig 14| `programs/linked_list.mp`      |
//! | array2d      | Table 2, Fig 12| `programs/array2d.mp`          |
//! | lu           | Tables 3/4     | `programs/lu.mp`               |
//! | superopt     | Tables 5/6     | `programs/superopt.mp`         |
//! | webserver    | Tables 7/8     | `programs/webserver.mp`        |
//!
//! Each app carries a host-side [`oracle`] that reproduces its output
//! bit-for-bit, so tests verify *correctness* under every optimization
//! configuration, not merely cross-configuration agreement.

pub mod oracle;
pub mod serve;

use corm::{compile, run, Compiled, OptConfig, RunOptions, RunOutcome};

/// One benchmark application.
#[derive(Debug, Clone, Copy)]
pub struct AppSpec {
    pub name: &'static str,
    /// Which paper artifact this regenerates.
    pub table: &'static str,
    pub source: &'static str,
    /// Paper-scale default arguments (see each program header).
    pub default_args: &'static [i64],
    /// Reduced arguments for fast tests/CI.
    pub quick_args: &'static [i64],
    /// Cluster size (the paper evaluates on 2 CPUs).
    pub machines: usize,
}

pub const LINKED_LIST: AppSpec = AppSpec {
    name: "linked_list",
    table: "Table 1",
    source: include_str!("programs/linked_list.mp"),
    // 8000 list sends (the paper: 100) make every Table 1 cell >= 100 ms
    // of wall time, long enough for its spread to be read.
    default_args: &[100, 8000],
    quick_args: &[20, 5],
    machines: 2,
};

pub const ARRAY2D: AppSpec = AppSpec {
    name: "array2d",
    table: "Table 2",
    source: include_str!("programs/array2d.mp"),
    // 20000 sends (the paper: 100), for the same reason as LINKED_LIST.
    default_args: &[16, 20000],
    quick_args: &[8, 5],
    machines: 2,
};

pub const LU: AppSpec = AppSpec {
    name: "lu",
    table: "Tables 3/4",
    source: include_str!("programs/lu.mp"),
    // The paper factors 1024×1024 on real hardware; the interpreted
    // default is 192 (cubic cost). The bench harness scales further.
    default_args: &[192, 42],
    quick_args: &[24, 42],
    machines: 2,
};

pub const SUPEROPT: AppSpec = AppSpec {
    name: "superopt",
    table: "Tables 5/6",
    source: include_str!("programs/superopt.mp"),
    default_args: &[3, 3, 6, 4, 42],
    quick_args: &[2, 2, 4, 2, 42],
    machines: 2,
};

pub const WEBSERVER: AppSpec = AppSpec {
    name: "webserver",
    table: "Tables 7/8",
    source: include_str!("programs/webserver.mp"),
    default_args: &[100, 256, 2000, 7],
    quick_args: &[20, 16, 50, 7],
    machines: 2,
};

/// All five applications, in paper order.
pub const ALL_APPS: [AppSpec; 5] = [LINKED_LIST, ARRAY2D, LU, SUPEROPT, WEBSERVER];

impl AppSpec {
    /// Compile this app under `config`.
    pub fn compile(&self, config: OptConfig) -> Compiled {
        compile(self.source, config)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", self.name))
    }

    /// Run with explicit arguments.
    pub fn run_with(&self, config: OptConfig, args: &[i64], machines: usize) -> RunOutcome {
        let compiled = self.compile(config);
        run(&compiled, RunOptions { machines, args: args.to_vec(), ..Default::default() })
    }

    /// Run at test scale.
    pub fn run_quick(&self, config: OptConfig) -> RunOutcome {
        self.run_with(config, self.quick_args, self.machines)
    }

    /// The bit-exact expected output for the given arguments.
    pub fn expected_output(&self, args: &[i64], machines: usize) -> String {
        match self.name {
            "linked_list" => oracle::linked_list_output(args[0], args[1]),
            "array2d" => oracle::array2d_output(args[0], args[1]),
            "lu" => oracle::lu_output(args[0], args[1]),
            "superopt" => {
                oracle::superopt_output(args[0], args[1], args[2], args[3], args[4], machines)
            }
            "webserver" => oracle::webserver_output(args[0], args[1], args[2], args[3]),
            other => panic!("unknown app {other}"),
        }
    }
}

/// Look an app up by name.
pub fn app(name: &str) -> Option<AppSpec> {
    ALL_APPS.iter().copied().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every app, every configuration: the output must equal the oracle's
    /// bit-for-bit. This is the central correctness claim — the
    /// optimizations change only performance, never results.
    fn check_app_all_configs(spec: AppSpec) {
        let expected = spec.expected_output(spec.quick_args, spec.machines);
        for (name, cfg) in OptConfig::TABLE_ROWS {
            let out = spec.run_quick(cfg);
            assert!(
                out.error.is_none(),
                "{} failed under {name}: {:?}\noutput: {}",
                spec.name,
                out.error,
                out.output
            );
            assert_eq!(out.output, expected, "{} output mismatch under {name}", spec.name);
        }
    }

    #[test]
    fn linked_list_all_configs() {
        check_app_all_configs(LINKED_LIST);
    }

    #[test]
    fn array2d_all_configs() {
        check_app_all_configs(ARRAY2D);
    }

    #[test]
    fn lu_all_configs() {
        check_app_all_configs(LU);
    }

    #[test]
    fn superopt_all_configs() {
        check_app_all_configs(SUPEROPT);
    }

    #[test]
    fn webserver_all_configs() {
        check_app_all_configs(WEBSERVER);
    }

    #[test]
    fn list_extension_is_correct_on_acyclic_lists() {
        let ext = OptConfig { list_extension: true, ..OptConfig::ALL };
        let expected = LINKED_LIST.expected_output(LINKED_LIST.quick_args, 2);
        let out = LINKED_LIST.run_quick(ext);
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.output, expected);
        assert_eq!(out.stats.cycle_lookups, 0, "extension removes the list's cycle table");
    }

    // ----- statistics shape (the paper's qualitative claims) --------------

    #[test]
    fn linked_list_stats_shape() {
        // Table 1: cycle elimination cannot help ("the linked list may
        // contain cycles"), reuse saves the 100 allocations per RMI.
        let site = LINKED_LIST.run_quick(OptConfig::SITE);
        let cycle = LINKED_LIST.run_quick(OptConfig::SITE_CYCLE);
        let reuse = LINKED_LIST.run_quick(OptConfig::ALL);
        assert!(site.stats.cycle_lookups > 0);
        assert_eq!(
            site.stats.cycle_lookups, cycle.stats.cycle_lookups,
            "cycle elimination must not fire on a (conservatively cyclic) list"
        );
        let elems = LINKED_LIST.quick_args[0] as u64;
        let reps = LINKED_LIST.quick_args[1] as u64;
        assert!(
            reuse.stats.reused_objs >= elems * (reps - 1),
            "all list nodes after the first RMI must be reused, got {}",
            reuse.stats.reused_objs
        );
    }

    #[test]
    fn array2d_stats_shape() {
        // Table 2: all three optimizations help.
        let class = ARRAY2D.run_quick(OptConfig::CLASS);
        let site = ARRAY2D.run_quick(OptConfig::SITE);
        let cycle = ARRAY2D.run_quick(OptConfig::SITE_CYCLE);
        let all = ARRAY2D.run_quick(OptConfig::ALL);
        assert!(site.stats.wire_bytes < class.stats.wire_bytes, "site saves type info");
        assert!(site.stats.type_info_bytes < class.stats.type_info_bytes);
        assert!(cycle.stats.cycle_lookups == 0 && site.stats.cycle_lookups > 0);
        assert!(all.stats.reused_objs > 0);
        assert!(all.stats.deser_bytes < cycle.stats.deser_bytes);
    }

    #[test]
    fn lu_stats_shape() {
        // Table 4: site removes serializer invocations; cycle removes all
        // lookups; reuse cuts deserialization volume.
        let class = LU.run_quick(OptConfig::CLASS);
        let site = LU.run_quick(OptConfig::SITE);
        let cycle = LU.run_quick(OptConfig::SITE_CYCLE);
        let all = LU.run_quick(OptConfig::ALL);
        assert!(class.stats.ser_invocations > 0);
        assert_eq!(site.stats.ser_invocations, 0, "LU transfers are fully static in site mode");
        assert_eq!(cycle.stats.cycle_lookups, 0);
        assert!(all.stats.deser_bytes < cycle.stats.deser_bytes);
        assert!(class.stats.local_rpcs > 0 && class.stats.remote_rpcs > 0);
        // the algorithmic RPCs (flush + fetch per elimination step) happen
        // under every configuration; completion polling adds a
        // timing-dependent remainder, so compare against the lower bound.
        let n = LU.quick_args[0] as u64;
        for o in [&class, &site, &cycle, &all] {
            assert!(o.stats.local_rpcs + o.stats.remote_rpcs >= 2 * n);
        }
    }

    #[test]
    fn superopt_stats_shape() {
        // Table 6: cycle lookups drop to ~0, programs are not reusable
        // (they escape into the tester queues).
        let site = SUPEROPT.run_quick(OptConfig::SITE);
        let all = SUPEROPT.run_quick(OptConfig::ALL);
        assert!(site.stats.cycle_lookups > 0);
        assert_eq!(all.stats.cycle_lookups, 0);
        assert_eq!(all.stats.reused_objs, 0, "queued programs escape (paper: not eligible)");
    }

    #[test]
    fn webserver_stats_shape() {
        // Tables 7/8: cycle detection fully removed; with reuse, pages
        // stop allocating after the first retrieval per call site.
        let site = WEBSERVER.run_quick(OptConfig::SITE);
        let cycle = WEBSERVER.run_quick(OptConfig::SITE_CYCLE);
        let all = WEBSERVER.run_quick(OptConfig::ALL);
        assert!(site.stats.cycle_lookups > 0);
        assert_eq!(cycle.stats.cycle_lookups, 0);
        assert!(all.stats.reused_objs > 0, "returned pages must be reused");
        assert!(
            all.stats.deser_bytes * 2 < cycle.stats.deser_bytes,
            "reuse must eliminate most deserialization allocation: {} vs {}",
            all.stats.deser_bytes,
            cycle.stats.deser_bytes
        );
    }

    #[test]
    fn modeled_time_orders_like_the_paper() {
        // Modeled time is the wire term alone: both rows send the same
        // messages, and `all` fewer bytes (no type tags), so it must be
        // cheaper on the modeled Myrinet than `class`.
        let class = ARRAY2D.run_quick(OptConfig::CLASS).modeled.as_nanos();
        let all = ARRAY2D.run_quick(OptConfig::ALL).modeled.as_nanos();
        assert!(all < class, "site+reuse+cycle ({all}) must beat class ({class})");
    }
}
