(** The WALI engine: process/thread model (1-to-1, instance-per-thread),
    virtual signal delivery at safepoints, and process lifecycle
    (paper §3.1, §3.3).

    Each WALI process is one kernel task running one explicit-state Wasm
    machine on its own fiber. Threads share the process image (memory,
    mmap manager, sigactions) but get their own machine — the engine-side
    equivalent of instance-per-thread, since all per-thread execution
    state (value stack, call frames) lives in the machine. *)

open Wasm

(* Raised out of a guest's run when a fatal signal or an exit_group from
   a sibling thread terminates the task at a safepoint, and by the native
   and RV32 backends when the guest exits. Not a Wasm trap: it
   deliberately unwinds the whole machine run. *)
exception Killed_by of int (* packed wait status *)

type pshared = {
  ps_mmap : Mmap_mgr.t;
  mutable ps_argv : string array;
  mutable ps_env : string array;
  ps_mem_id : int; (* futex address-space id *)
  mutable ps_brk : int;
  ps_heap_base : int;
  ps_binary : string; (* the loaded .wasm image, for diagnostics *)
}

type proc = {
  pr_task : Kernel.Task.t;
  pr_sys : Kernel.Syscalls.ctx;
  mutable pr_shared : pshared;
  mutable pr_machine : Rt.machine option;
  mutable pr_result : Interp.run_result option; (* set when the task ends *)
}

type t = {
  kernel : Kernel.Task.kernel;
  futexes : Kernel.Futex.t;
  trace : Strace.t;
  mutable policy : Seccomp.t;
  mutable poll_scheme : Code.poll_scheme;
  mutable fuse : bool; (* run the macro-op fusion pass on new images *)
  procs : (int, proc) Hashtbl.t; (* task tid -> proc *)
  mutable next_mem_id : int;
  mutable live_procs : int;
  mutable on_proc_exit : (proc -> int -> unit) option;
  mutable interpose : interposer option;
  mutable observe : Observe.Sink.t option;
      (* observability sink — deliberately separate from [interpose] so
         tracing/metrics/profiling compose with record/replay *)
}

(** Record/replay (and other tooling) hooks around the thin interface.
    [ip_dispatch] wraps every WALI host call — the [run] thunk performs
    the live seccomp check + kernel dispatch, and the interposer may call
    it (recording) or substitute its own outcome (replay). [ip_poll] is
    invoked at every counted safepoint poll, before signal delivery, so
    both sides of record/replay agree on delivery positions. [ip_signal]
    observes each virtual signal delivery ([status] is the packed wait
    status for fatal dispositions, [None] for handler runs). *)
and interposer = {
  ip_dispatch :
    t ->
    proc ->
    string ->
    Rt.machine ->
    Values.value array ->
    (unit -> Rt.host_outcome) ->
    Rt.host_outcome;
  ip_poll : t -> proc -> Rt.machine -> unit;
  ip_signal : t -> proc -> Rt.machine -> signo:int -> status:int option -> unit;
  ip_virtual_signals : bool;
      (* true (replay): kernel-pending signals are never popped at
         safepoints — deliveries come exclusively from the interposer's
         [ip_poll] re-injection. Live process exits still post e.g.
         SIGCHLD to kernel tasks; without this, those would be delivered
         a second time on top of the injected recorded delivery. *)
}

let create ?(poll_scheme = Code.Poll_loops) ?(fuse = true)
    ?(trace = Strace.create ()) ?(policy = Seccomp.allow_all ()) ?observe
    (kernel : Kernel.Task.kernel) : t =
  (* The sink reads the tracer's registry rather than keeping its own:
     each crossing is aggregated once, by [Strace.note]. *)
  (match observe with
  | Some o ->
      Observe.Sink.bind o ~metrics:(Strace.metrics trace)
        ~kstats:kernel.Kernel.Task.stats
  | None -> ());
  {
    kernel;
    futexes = Kernel.Futex.create ();
    trace;
    policy;
    poll_scheme;
    fuse;
    procs = Hashtbl.create 16;
    next_mem_id = 1;
    live_procs = 0;
    on_proc_exit = None;
    interpose = None;
    observe;
  }

let fresh_mem_id eng =
  let id = eng.next_mem_id in
  eng.next_mem_id <- id + 1;
  id

(* Called at every safepoint poll and crossing: [Hashtbl.find] builds no
   option, so a poll with nothing pending allocates nothing. *)
let proc_of eng (m : Rt.machine) : proc =
  try Hashtbl.find eng.procs m.Rt.m_pid
  with Not_found ->
    Values.trap "no WALI process for machine (pid %d)" m.Rt.m_pid

let find_proc eng tid = Hashtbl.find_opt eng.procs tid

(** The machine's current Wasm call stack, outermost first — the folded
    profile's frame order. *)
let machine_stack (m : Rt.machine) : string list =
  List.init m.Rt.depth (fun i -> m.Rt.frames.(i).Rt.fr_code.Code.fc_name)

(** Install the profiler's call/return sample hook on a machine (new
    process images and spawned threads; fork children inherit the hook
    through [Machine.clone]). *)
let install_prof eng (m : Rt.machine) : unit =
  match eng.observe with
  | Some o when Observe.Sink.profiling o ->
      m.Rt.prof_hook <-
        Some
          (fun mm ->
            Observe.Sink.prof_sample o ~pid:mm.Rt.m_pid ~steps:mm.Rt.steps
              ~stack:(fun () -> machine_stack mm))
  | _ -> ()

let register_proc eng (p : proc) =
  Hashtbl.replace eng.procs p.pr_task.Kernel.Task.tid p;
  eng.live_procs <- eng.live_procs + 1;
  match eng.observe with
  | Some o ->
      let t = p.pr_task in
      Observe.Sink.proc_start o ~pid:t.Kernel.Task.tgid ~tid:t.Kernel.Task.tid
        ~comm:t.Kernel.Task.comm ~ts:(Fiber.now ())
  | None -> ()

(** The one way a process or thread comes into being: build its syscall
    context and [proc] record around [task] and register it. *)
let add_proc eng (task : Kernel.Task.t) ~(shared : pshared)
    ~(machine : Rt.machine) : proc =
  let p =
    {
      pr_task = task;
      pr_sys = Kernel.Syscalls.make_ctx eng.kernel task eng.futexes;
      pr_shared = shared;
      pr_machine = Some machine;
      pr_result = None;
    }
  in
  register_proc eng p;
  p

(** Close the books on a machine that stops running — its task exits or
    execve replaces it: charge its last steps to the profile and retire
    its instruction count. *)
let retire_machine eng (m : Rt.machine) : unit =
  match eng.observe with
  | Some o ->
      if Observe.Sink.profiling o then begin
        Observe.Sink.prof_sample o ~pid:m.Rt.m_pid ~steps:m.Rt.steps
          ~stack:(fun () -> machine_stack m);
        Observe.Sink.prof_reset o ~pid:m.Rt.m_pid
      end;
      Observe.Sink.instr_retire o ~pid:m.Rt.m_pid ~steps:m.Rt.steps
        ~fused:m.Rt.fused
  | None -> ()

(** Run a host call's [live] thunk through the installed interposer, or
    directly when there is none. *)
let interposed eng (p : proc) name (m : Rt.machine) args
    (live : unit -> Rt.host_outcome) : Rt.host_outcome =
  match eng.interpose with
  | Some ip -> ip.ip_dispatch eng p name m args live
  | None -> live ()

(* ------------------------------------------------------------------ *)
(* Virtual signal delivery at safepoints (paper §3.3, Fig 5)            *)
(* ------------------------------------------------------------------ *)

(* Resolve a registered handler (a Wasm function-pointer, i.e. an index
   into table 0) to a callable function. *)
let handler_func (inst : Rt.instance) idx : Rt.func_inst option =
  if Array.length inst.Rt.i_tables = 0 then None
  else
    match Rt.Table.get inst.Rt.i_tables.(0) idx with
    | Some fidx -> Some inst.Rt.i_funcs.(fidx)
    | None -> None
    | exception Values.Trap _ -> None

(** How a backend runs a registered handler: call the guest function
    [fnptr] with [signo] as its one argument on the interrupted machine
    [m] and return when it does; [false] when [fnptr] names no function. *)
type handler_call = Rt.machine -> fnptr:int -> signo:int -> bool

(** The Wasm backend's [handler_call]: [fnptr] indexes table 0, and the
    handler runs re-entrantly on the interrupted machine. *)
let wasm_handler (m : Rt.machine) ~fnptr ~signo : bool =
  match handler_func m.Rt.m_inst fnptr with
  | None -> false
  | Some f ->
      (match Interp.call_nested m f [ Values.I32 (Int32.of_int signo) ] with
      | Interp.R_done _ | Interp.R_exit _ -> ()
      | Interp.R_trap msg -> Values.trap "trap in signal handler: %s" msg);
      true

(** Run the registered handler for [signo] through the backend's [call]
    with the mask discipline: block the signal itself (unless SA_NODEFER)
    plus sa_mask for the duration — nested delivery therefore defers
    identical signals, the stack-based structure of §3.3. A dangling
    handler function pointer is treated as default Term. Also the entry
    point the replayer uses to re-inject recorded deliveries. *)
let run_signal_handler (call : handler_call) (p : proc) (m : Rt.machine)
    ~(signo : int) ~(action : Kernel.Ktypes.sigaction) : unit =
  let task = p.pr_task in
  let open Kernel.Ktypes in
  let old_mask = task.Kernel.Task.sigmask in
  let block =
    if action.sa_flags land sa_nodefer <> 0 then action.sa_mask
    else Sigset.add action.sa_mask signo
  in
  task.Kernel.Task.sigmask <- Sigset.union old_mask block;
  let found =
    Fun.protect
      ~finally:(fun () -> task.Kernel.Task.sigmask <- old_mask)
      (fun () ->
        (* a backend without Wasm's bounds checks faults like a trap *)
        try call m ~fnptr:action.sa_handler ~signo
        with Rt.Memory.Bounds ->
          Values.trap "trap in signal handler: out of bounds memory access")
  in
  if not found then raise (Killed_by (wsignal_status signo))

(** Deliver every currently-deliverable signal to process [p], running
    handlers through the backend's [call] (sig_poll in Fig 5); default
    dispositions terminate via [Killed_by]. The one place a signal's
    disposition is decided: every backend calls it at its safepoints and
    on every syscall return. *)
let rec deliver_signals eng (p : proc) (m : Rt.machine) (call : handler_call)
    : unit =
  let task = p.pr_task in
  (match task.Kernel.Task.group.Kernel.Task.exiting with
  | Some status -> raise (Killed_by status)
  | None -> ());
  let suppressed =
    match eng.interpose with
    | Some ip -> ip.ip_virtual_signals
    | None -> false
  in
  if (not suppressed) && Kernel.Task.has_deliverable_signal task then begin
    match Kernel.Task.next_signal task with
    | None -> ()
    | Some (signo, action) ->
        let open Kernel.Ktypes in
        let observe status =
          match eng.interpose with
          | Some ip -> ip.ip_signal eng p m ~signo ~status
          | None -> ()
        in
        let delivered () =
          let ks = eng.kernel.Kernel.Task.stats in
          ks.Observe.Metrics.sig_delivered <-
            ks.Observe.Metrics.sig_delivered + 1
        in
        let pid = task.Kernel.Task.tgid and tid = task.Kernel.Task.tid in
        if action.sa_handler = sig_ign then deliver_signals eng p m call
        else if action.sa_handler = sig_dfl then begin
          match default_disposition signo with
          | Ign | Cont -> deliver_signals eng p m call
          | Stop -> deliver_signals eng p m call (* job control simplified *)
          | Term | Core ->
              let status = wsignal_status signo in
              observe (Some status);
              delivered ();
              (match eng.observe with
              | Some o ->
                  Observe.Sink.signal_fatal o ~pid ~tid ~signo
                    ~ts:(Fiber.now ())
              | None -> ());
              raise (Killed_by status)
        end
        else begin
          observe None;
          delivered ();
          (match eng.observe with
          | Some o ->
              Observe.Sink.signal_begin o ~pid ~tid ~signo ~ts:(Fiber.now ());
              (* the handler may exit the process via Killed_by — close
                 the span either way so the trace stays well-nested *)
              Fun.protect
                ~finally:(fun () ->
                  Observe.Sink.signal_end o ~pid ~tid ~signo
                    ~ts:(Fiber.now ()))
                (fun () -> run_signal_handler call p m ~signo ~action)
          | None -> run_signal_handler call p m ~signo ~action);
          (* more signals may have arrived meanwhile *)
          deliver_signals eng p m call
        end
  end

let poll_hook eng : Rt.machine -> unit =
 fun m ->
  (match eng.observe with
  | Some o -> Observe.Sink.safepoint_poll o
  | None -> ());
  let p = proc_of eng m in
  (match eng.interpose with Some ip -> ip.ip_poll eng p m | None -> ());
  deliver_signals eng p m wasm_handler

(** A fresh machine on [inst] for task [tid], with the safepoint hook
    and the profiler hook installed: every new process image and every
    spawned thread starts here (fork children clone their parent's). *)
let new_machine eng (inst : Rt.instance) ~(tid : int) : Rt.machine =
  let m = Rt.Machine.create inst in
  m.Rt.m_pid <- tid;
  m.Rt.poll_hook <- Some (poll_hook eng);
  install_prof eng m;
  m

(* ------------------------------------------------------------------ *)
(* Image construction                                                   *)
(* ------------------------------------------------------------------ *)

(* Decode + compile is pure in the binary (and the compile options), and
   [Link.instantiate] never mutates the compiled module — memories,
   globals and tables are built fresh per instance — so compiled images
   are shared across processes and repeated execs of the same binary.
   Compilation consumes no virtual time, so the cache cannot perturb any
   deterministic counter; it only removes redundant host work. *)
let compile_cache : (string * string * Code.poll_scheme * bool, Code.compiled)
    Hashtbl.t =
  Hashtbl.create 16

let compile_cache_max = 64

let compile_cached ~poll ~fuse ~name binary : Code.compiled =
  let key = (Digest.string binary, name, poll, fuse) in
  match Hashtbl.find_opt compile_cache key with
  | Some cm -> cm
  | None ->
      let m = Binary.decode ~name binary in
      let cm = Code.compile_module ~poll ~fuse m in
      if Hashtbl.length compile_cache >= compile_cache_max then
        Hashtbl.reset compile_cache;
      Hashtbl.replace compile_cache key cm;
      cm

(** Compile and instantiate a Wasm binary as a fresh process image. *)
let build_image eng ~(resolver : Link.resolver) ~(binary : string)
    ~(name : string) : Rt.instance =
  let cm = compile_cached ~poll:eng.poll_scheme ~fuse:eng.fuse ~name binary in
  (match eng.observe with
  | Some o ->
      let fs = cm.Code.cm_fuse in
      Observe.Sink.note_fusion o ~ops_before:fs.Code.fs_ops_before
        ~ops_after:fs.Code.fs_ops_after ~sites:fs.Code.fs_sites
  | None -> ());
  let inst, start = Link.instantiate ~name resolver cm in
  (match start with
  | Some _ -> () (* start functions run on first invoke by convention *)
  | None -> ());
  inst

let heap_base_of (inst : Rt.instance) : int =
  match Rt.export_opt inst "__heap_base" with
  | Some (Rt.E_global g) -> (
      match Rt.Global.get g with
      | Values.I32 v -> Int32.to_int v
      | _ -> 1 lsl 20)
  | _ -> 1 lsl 20

(** A new process image's shared state: nothing mapped, the break at
    [heap_base], and its argv/env. *)
let new_pshared eng ~heap_base ~argv ~env ~binary : pshared =
  {
    ps_mmap = Mmap_mgr.create ~heap_base;
    ps_argv = Array.of_list argv;
    ps_env = Array.of_list env;
    ps_mem_id = fresh_mem_id eng;
    ps_brk = Mmap_mgr.align_up heap_base;
    ps_heap_base = heap_base;
    ps_binary = binary;
  }

let make_pshared eng ~(inst : Rt.instance) ~argv ~env ~binary : pshared =
  new_pshared eng ~heap_base:(heap_base_of inst) ~argv ~env ~binary

(** A fork child's copy of its parent's shared state, taken at the fork:
    the same mappings and break over the cloned memory, in an address
    space of its own. *)
let fork_pshared eng (old : pshared) : pshared =
  {
    old with
    ps_mmap = Mmap_mgr.clone old.ps_mmap;
    ps_argv = Array.copy old.ps_argv;
    ps_env = Array.copy old.ps_env;
    ps_mem_id = fresh_mem_id eng;
  }

(** Open the console on fds 0,1,2 of a task (for the initial process). *)
let setup_stdio eng (task : Kernel.Task.t) =
  let ctx = Kernel.Syscalls.make_ctx eng.kernel task eng.futexes in
  let open_tty flags =
    match
      Kernel.Syscalls.openat ctx ~dirfd:Kernel.Syscalls.at_fdcwd
        ~path:"/dev/console" ~flags ~mode:0
    with
    | Ok fd -> fd
    | Error e -> failwith ("setup_stdio: " ^ Kernel.Errno.to_string e)
  in
  ignore (open_tty Kernel.Ktypes.o_rdonly);
  ignore (open_tty Kernel.Ktypes.o_wronly);
  ignore (open_tty Kernel.Ktypes.o_wronly)

(* ------------------------------------------------------------------ *)
(* Task completion                                                      *)
(* ------------------------------------------------------------------ *)

(* Tear the task down with a packed wait status, propagating exit_group
   to sibling threads. *)
let do_exit eng (p : proc) ~(status : int) : unit =
  let open Kernel in
  let task = p.pr_task in
  let is_group_leader = task.Task.tid = task.Task.tgid in
  if is_group_leader then begin
    (* exit_group semantics: take the rest of the thread group down. *)
    task.Task.group.Task.exiting <- Some status;
    List.iter
      (fun (sib : Task.t) ->
        if sib != task then
          match !(sib.Task.intr) with Some wake -> wake () | None -> ())
      task.Task.group.Task.threads
  end;
  Task.exit_task eng.kernel task ~status;
  eng.live_procs <- eng.live_procs - 1;
  Option.iter (retire_machine eng) p.pr_machine;
  (match eng.observe with
  | Some o ->
      Observe.Sink.proc_exit o ~pid:task.Task.tgid ~tid:task.Task.tid ~status
        ~ts:(Fiber.now ())
  | None -> ());
  (match eng.on_proc_exit with
  | Some f -> f p status
  | None -> ());
  Hashtbl.remove eng.procs task.Task.tid

(** The one end of a guest's run, whatever the backend: [body] runs the
    guest to its result, and its exit, fatal signal or fault becomes a
    packed wait status for {!do_exit}. An exit or fatal signal raised as
    [Killed_by] carries its status; a guest fault — a Wasm trap, or an
    out-of-bounds access in a backend without Wasm's checks — ends the
    process like a fatal signal (SIGILL-style status), which is how e.g.
    call_indirect signature violations surface. *)
let run_guest eng (p : proc) (body : unit -> Interp.run_result) : unit =
  let outcome =
    try `Result (body ()) with
    | Killed_by status -> `Killed status
    | Values.Trap msg -> `Result (Interp.R_trap msg)
    | Rt.Memory.Bounds -> `Result (Interp.R_trap "out of bounds memory access")
  in
  match outcome with
  | `Killed status ->
      p.pr_result <- Some (Interp.R_exit (status lsr 8));
      do_exit eng p ~status
  | `Result r ->
      p.pr_result <- Some r;
      (match (r, eng.observe) with
      | Interp.R_trap _, Some o -> Observe.Sink.trap o
      | _ -> ());
      let status =
        let open Kernel.Ktypes in
        match r with
        | Interp.R_done _ -> wexit_status 0
        | Interp.R_exit code -> wexit_status code
        | Interp.R_trap _ -> wsignal_status Kernel.Ktypes.sigill
      in
      do_exit eng p ~status

(** The body that every Wasm process/thread fiber runs. *)
let run_machine_body eng (p : proc) (m : Rt.machine) ~fresh_entry
    ~(entry : Rt.func_inst option) ~(args : Values.value list) : unit =
  run_guest eng p (fun () ->
      if fresh_entry then
        match entry with
        | Some f -> Interp.invoke m f args
        | None -> Interp.R_trap "no entry function"
      else Interp.resume m ~results:0)

(** Result of the last finished process with pid [tid], if tracked. *)
let result_of (p : proc) = p.pr_result
