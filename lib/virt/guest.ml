(** A MiniC guest process on the WALI engine, shared by the native and
    RV32 backends: its proc record, its syscalls, the one start/run
    skeleton, and a bare-process fixture for benches and tests.

    Both backends live the engine's own process life. Signals are
    delivered by {!Wali.Engine.deliver_signals} at the backend's
    safepoints and on every syscall return; argv/env live in the proc's
    [pshared] and are served by {!Wali.Interface.env_method}; exit, fatal
    signal and guest fault end the process through
    {!Wali.Engine.run_guest}, so every backend gives the same packed
    status. *)

open Kernel

type result = {
  r_status : int; (* packed wait status *)
  r_output : string;
  r_vm_peak : int;
}

(** Build the proc for a guest task whose memory is [mem]. Its machine
    only carries the memory for the dispatcher; the backend installs the
    poll hook that delivers signals through its own handler call. *)
let make_proc eng (task : Task.t) (mem : Wasm.Rt.Memory.t)
    ~(shared : Wali.Engine.pshared) : Wali.Engine.proc * Wasm.Rt.machine =
  let inst : Wasm.Rt.instance =
    {
      Wasm.Rt.i_name = "native";
      i_types = [||];
      i_funcs = [||];
      i_memories = [| mem |];
      i_tables = [||];
      i_globals = [||];
      i_exports = Hashtbl.create 1;
      i_codes = [||];
    }
  in
  let m = Wasm.Rt.Machine.create inst in
  m.Wasm.Rt.m_pid <- task.Task.tid;
  (Wali.Engine.add_proc eng task ~shared ~machine:m, m)

(** One syscall by name from a guest on machine [m]: the kernel's raw
    result (-errno on failure). An exit unwinds the guest with its
    status; fork/exec outcomes, which these backends implement
    themselves or not at all, are -ENOSYS. *)
let syscall eng (m : Wasm.Rt.machine) name (args : int array) : int =
  let vals = Array.map (fun v -> Wasm.Values.I64 (Int64.of_int v)) args in
  match Wali.Interface.dispatch eng name m vals with
  | Wasm.Rt.H_return [ Wasm.Values.I64 r ] -> Int64.to_int r
  | Wasm.Rt.H_exit code ->
      raise (Wali.Engine.Killed_by (Ktypes.wexit_status code))
  | _ -> -Errno.to_code Errno.ENOSYS

(** The one start/run skeleton: make [kernel]'s initial task [comm] with
    stdio on the console, let [launch eng task] start the guest on it
    inside the scheduler, and run until every fiber has finished. The
    result is the initial task's. A guest that blocks forever ends in
    [Fiber.Deadlock]. *)
let run (kernel : Task.kernel) ~comm (launch : Wali.Engine.t -> Task.t -> unit)
    : result =
  let eng = Wali.Engine.create kernel in
  let result = ref None in
  Fiber.run (fun () ->
      let task = Task.make_init kernel ~comm in
      Wali.Engine.setup_stdio eng task;
      eng.Wali.Engine.on_proc_exit <-
        Some
          (fun p status ->
            if p.Wali.Engine.pr_task == task then
              result :=
                Some { r_status = status; r_output = ""; r_vm_peak = task.Task.vm_peak });
      launch eng task);
  match !result with
  | Some r -> { r with r_output = Task.console_output kernel }
  | None -> failwith "guest run did not complete"

(** Run [f eng ctx m] against a bare guest process — a fresh kernel, its
    initial task with stdio on the console, [pages] pages of memory and
    the heap at [heap_base] — inside the scheduler, and return its
    result. The machine has no poll hook, so no signal is delivered. *)
let with_proc ~pages ~heap_base f =
  let out = ref None in
  Fiber.run (fun () ->
      let kernel = Task.boot () in
      let eng = Wali.Engine.create kernel in
      let task = Task.make_init kernel ~comm:"guest" in
      Wali.Engine.setup_stdio eng task;
      let mem = Wasm.Rt.Memory.create ~min_pages:pages ~max_pages:pages in
      let shared =
        Wali.Engine.new_pshared eng ~heap_base ~argv:[] ~env:[] ~binary:""
      in
      let p, m = make_proc eng task mem ~shared in
      out := Some (f eng p.Wali.Engine.pr_sys m));
  Option.get !out
