//! Driving `workloads/service.mp` from outside: a booted cluster, the call
//! sites the compiler planned, and callers that issue RMIs the way a VM
//! thread on machine 0 does (`rmi::remote_call_with_req` under the machine
//! lock, as `corm_vm::serve` drives its clients).

use std::sync::Arc;

use corm::{compile, Cluster, Compiled, OptConfig, RunOptions, RunOutcome, Value, VmError};
use corm_heap::{Heap, ObjBody};
use corm_ir::{CallSiteId, ClassId, FuncId, MethodId, Ty};
use corm_vm::interp::Interp;
use corm_vm::machine::MachineShared;
use corm_vm::rmi;
use corm_vm::Runtime;

pub const SOURCE: &str = include_str!("../workloads/service.mp");

/// A remote method and the one call site in `Main.main` that targets it.
pub type Site = (CallSiteId, MethodId);

/// Everything the harness looks up by name in the compiled service.
#[derive(Clone, Copy)]
pub struct Sites {
    pub class: ClassId,
    pub node_class: ClassId,
    pub init: Site,
    pub ping: Site,
    pub sum_list: Site,
    pub sum_mat: Site,
    pub sum_tree: Site,
    pub get_page: Site,
    pub hit_count: Site,
    pub build_list: FuncId,
    pub build_mat: FuncId,
    pub build_tree: FuncId,
    pub spin: FuncId,
    /// Layout slot of `Page.body`.
    pub page_body_slot: usize,
}

pub fn compile_service(config: OptConfig) -> Compiled {
    compile(SOURCE, config).unwrap_or_else(|e| panic!("service.mp does not compile: {e}"))
}

pub fn resolve(c: &Compiled) -> Sites {
    let table = &c.module.table;
    let class_named =
        |name: &str| table.class_named(name).unwrap_or_else(|| panic!("no class {name}"));
    let class = class_named("Service");
    let build = class_named("Build");
    let page = class_named("Page");
    let method = |cls: ClassId, name: &str| {
        table.find_method(cls, name).unwrap_or_else(|| panic!("no method {name}"))
    };
    let site = |name: &str| -> Site {
        let mid = method(class, name);
        let site = c
            .plans
            .sites
            .values()
            .filter(|p| p.method == mid)
            .map(|p| p.site)
            .min_by_key(|s| s.0)
            .unwrap_or_else(|| panic!("no call site targets Service.{name}"));
        (site, mid)
    };
    let func = |name: &str| {
        c.module
            .func_of_method(method(build, name))
            .unwrap_or_else(|| panic!("Build.{name} has no body"))
    };
    let body = table.find_instance_field(page, "body").expect("Page.body");
    Sites {
        class,
        node_class: class_named("Node"),
        init: site("init"),
        ping: site("ping"),
        sum_list: site("sumList"),
        sum_mat: site("sumMat"),
        sum_tree: site("sumTree"),
        get_page: site("getPage"),
        hit_count: site("hitCount"),
        build_list: func("list"),
        build_mat: func("mat"),
        build_tree: func("tree"),
        spin: func("spin"),
        page_body_slot: table.field(body).slot,
    }
}

/// A booted cluster running the service program, `main` not run.
pub struct Session {
    pub cluster: Cluster,
    pub sites: Sites,
}

impl Session {
    pub fn start(compiled: &Compiled, opts: &RunOptions) -> Result<Session, VmError> {
        let cluster = Cluster::start(compiled.module.clone(), compiled.plans.clone(), opts);
        if let Some(e) = cluster.run_clinits() {
            cluster.finish(Some(e.clone()));
            return Err(e);
        }
        Ok(Session { cluster, sites: resolve(compiled) })
    }

    pub fn rt(&self) -> &Arc<Runtime> {
        &self.cluster.rt
    }

    pub fn finish(self) -> RunOutcome {
        self.cluster.finish(None)
    }
}

/// One VM thread's worth of calling context on machine 0.
pub struct Caller {
    interp: Interp,
    machine: Arc<MachineShared>,
    sites: Sites,
}

impl Caller {
    pub fn new(rt: &Arc<Runtime>, sites: Sites) -> Caller {
        Caller { interp: Interp::new(rt.clone(), 0), machine: rt.machine(0).clone(), sites }
    }

    /// One RMI: returns the result and the request id the runtime minted.
    pub fn call(&mut self, site: Site, args: &[Value]) -> Result<(Value, u64), VmError> {
        self.call_then(site, args, |_, r| r)
    }

    /// One RMI, then `then` on its result before the machine lock the call
    /// returned with is let go — as the calling VM thread would go on
    /// interpreting. A returned graph lives in the call site's reuse cache,
    /// and the next reply deserialized at that site, by any thread, overwrites
    /// it: what a caller wants from the graph it must read here.
    pub fn call_then<T>(
        &mut self,
        site: Site,
        args: &[Value],
        then: impl FnOnce(&Heap, Result<(Value, u64), VmError>) -> T,
    ) -> T {
        let mut guard = self.machine.state.lock();
        guard.active_threads += 1;
        let r = rmi::remote_call_with_req(
            &mut self.interp,
            &mut guard,
            site.0,
            site.1,
            args,
            true,
            false,
        );
        let out = then(&guard.heap, r);
        guard.active_threads -= 1;
        self.machine.cv.notify_all();
        out
    }

    /// `new Service() @ target`, then `init`.
    pub fn new_service(
        &mut self,
        target: u16,
        npages: i32,
        page_size: i32,
        vary: bool,
        id: i32,
        nslaves: i32,
    ) -> Result<Value, VmError> {
        let svc = {
            let mut guard = self.machine.state.lock();
            guard.active_threads += 1;
            let r = rmi::new_remote(&mut self.interp, &mut guard, self.sites.class, target);
            guard.active_threads -= 1;
            self.machine.cv.notify_all();
            r?
        };
        let args = [
            svc,
            Value::Int(npages),
            Value::Int(page_size),
            Value::Int(vary as i32),
            Value::Int(id),
            Value::Int(nslaves),
        ];
        self.call(self.sites.init, &args)?;
        Ok(svc)
    }

    /// Run a `Build.*` function on machine 0 and pin what it returns.
    pub fn run(&mut self, func: FuncId, args: Vec<Value>) -> Result<Value, VmError> {
        let v = self.interp.run_function(func, args)?;
        if let Value::Ref(r) = v {
            self.machine.state.lock().heap.pin(r);
        }
        Ok(v)
    }

    /// A pinned `int[]` holding `vals`, the input of the `Build.*` functions.
    pub fn int_array(&mut self, vals: &[i32]) -> Value {
        let mut guard = self.machine.state.lock();
        let arr = guard.heap.alloc_array(&Ty::Int, vals.len());
        for (i, &v) in vals.iter().enumerate() {
            guard.heap.array_set(arr, i, Value::Int(v)).expect("fresh int[]");
        }
        guard.heap.pin(arr);
        Value::Ref(arr)
    }

    pub fn string(&mut self, s: String) -> Value {
        let mut guard = self.machine.state.lock();
        let r = guard.heap.alloc_str(s);
        guard.heap.pin(r);
        Value::Ref(r)
    }
}

impl Sites {
    /// Is `page` what `new Page(len, fill)` builds: `len` ints counting up
    /// from `fill`?
    pub fn page_is(&self, heap: &Heap, page: Value, fill: i32, len: usize) -> bool {
        let body = page
            .as_ref()
            .and_then(|p| heap.field(p, self.page_body_slot).ok())
            .and_then(|b| b.as_ref())
            .and_then(|b| heap.body(b).ok());
        match body {
            Some(ObjBody::ArrI32(v)) => {
                v.len() == len && v.iter().copied().eq(fill..fill + len as i32)
            }
            _ => false,
        }
    }
}
