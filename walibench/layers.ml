(** Host-time spans at the engine's layer boundaries, for the traced run.

    Every span is taken from outside the engine, around calls into each
    layer's public functions:

    - the image build: [Binary.decode], [Code.compile_module] and
      [Link.instantiate] of the launched image, launched through the same
      public calls [Interface.spawn_init] makes;
    - a crossing span around every host function [Interface.resolver]
      returns, for the launched image and, through
      [Interface.resolver_ref], for every image [execve] builds;
    - a [live] span, from an [Engine.interposer], around the seccomp check
      plus kernel dispatch; on recorded runs a further span around the
      recorder's own [ip_dispatch];
    - the [H_fork] callback and the [H_exec] closure a crossing returns;
    - scheduler quanta, from [Fiber.set_observer].

    A blocking call suspends its fiber inside the host call while other
    fibers run, so spans are kept on a stack per fiber, and each quantum
    end charges busy time only to the spans of the fiber that ran. Busy
    time of a span is its duration minus the time its fiber was parked;
    the rest is blocked time. Spans live in memory; the caller writes
    them out when the run ends. *)

open Wasm

let now () = Int64.to_int (Monotonic_clock.now ())

(** A growable buffer of integer samples (nanoseconds). *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_floats t = Array.init t.n (fun i -> float t.a.(i))
end

type kind = Crossing | Recorder | Live

type span = {
  sp_kind : kind;
  sp_start : int;
  mutable sp_busy : int; (* running time of this span's fiber inside it *)
  mutable sp_live : int; (* busy time of the [live] span nested in it *)
  mutable sp_rec : int; (* recorder tap time nested in a crossing *)
}

(** Per-program figures of one traced run, in host nanoseconds. *)
type prog = {
  mutable p_ok : bool;
  mutable p_wall : int; (* kernel boot to exit (and trace encode) *)
  mutable p_boot : int; (* [Task.boot] plus installing the images *)
  mutable p_launch : int; (* the whole launch, image build included *)
  mutable p_decode : int;
  mutable p_compile : int;
  mutable p_link : int;
  mutable p_quanta : int;
  mutable p_idle_jumps : int;
  mutable p_quanta_ns : int; (* host time inside scheduler quanta *)
  mutable p_crossings : int; (* syscall crossings, as Strace counts them *)
  mutable p_errnos : int;
  mutable p_busy : int;
      (* outermost host calls, blocked time, execve image builds and the
         recorder's tap excluded: the WALI layer's own time *)
  mutable p_blocked : int;
  mutable p_rec : int; (* the recorder's tap, [ip_dispatch] minus [live] *)
  mutable p_forks : int;
  mutable p_fork : int; (* inside [H_fork] callbacks *)
  mutable p_execs : int;
  mutable p_exec : int; (* execve crossings plus their [H_exec] closures *)
  mutable p_encode : int; (* [Trace.encode], recorded runs only *)
  mutable p_trace_bytes : int;
  mutable p_names : string list; (* syscall names, most recent first *)
}

let fresh_prog () =
  {
    p_ok = false; p_wall = 0; p_boot = 0; p_launch = 0; p_decode = 0;
    p_compile = 0; p_link = 0; p_quanta = 0; p_idle_jumps = 0;
    p_quanta_ns = 0; p_crossings = 0; p_errnos = 0; p_busy = 0;
    p_blocked = 0; p_rec = 0; p_forks = 0; p_fork = 0; p_execs = 0; p_exec = 0;
    p_encode = 0; p_trace_bytes = 0; p_names = [];
  }

(** Guest interpretation time: what the fibers ran minus everything the
    engine did for them inside their quanta. *)
let interp (p : prog) =
  p.p_quanta_ns - p.p_launch - p.p_busy - p.p_rec - p.p_fork - p.p_exec

(** The layer times summed: everything but scheduler gaps between
    quanta. Blocked time is not in it — a parked fiber's blocked time is
    other fibers' running time, already counted in their quanta. *)
let layer_sum (p : prog) =
  p.p_boot + p.p_launch + interp p + p.p_busy + p.p_rec + p.p_fork + p.p_exec
  + p.p_encode

type t = {
  mutable q_start : int; (* host time the current quantum began *)
  stacks : (int, span list ref) Hashtbl.t; (* fiber id -> open spans *)
  mutable cur : prog;
  busy : Samples.t; (* per syscall crossing *)
  live : Samples.t;
  tap : Samples.t; (* crossing busy minus live busy *)
  rec_tap : Samples.t; (* recorder ip_dispatch busy minus live busy *)
}

let create () =
  {
    q_start = 0;
    stacks = Hashtbl.create 16;
    cur = fresh_prog ();
    busy = Samples.create ();
    live = Samples.create ();
    tap = Samples.create ();
    rec_tap = Samples.create ();
  }

let observer t =
  {
    Fiber.ob_quantum =
      (fun f _ ->
        let ts = now () in
        (match Hashtbl.find_opt t.stacks (Fiber.id f) with
        | Some st ->
            List.iter
              (fun sp ->
                sp.sp_busy <- sp.sp_busy + ts - max sp.sp_start t.q_start)
              !st
        | None -> ());
        let p = t.cur in
        p.p_quanta <- p.p_quanta + 1;
        p.p_quanta_ns <- p.p_quanta_ns + ts - t.q_start;
        t.q_start <- ts);
    ob_idle = (fun _ -> t.cur.p_idle_jumps <- t.cur.p_idle_jumps + 1);
  }

let open_span t kind =
  let fid = Fiber.id (Fiber.current ()) in
  let st =
    match Hashtbl.find_opt t.stacks fid with
    | Some st -> st
    | None ->
        let st = ref [] in
        Hashtbl.replace t.stacks fid st;
        st
  in
  let sp = { sp_kind = kind; sp_start = now (); sp_busy = 0; sp_live = 0; sp_rec = 0 } in
  st := sp :: !st;
  (st, sp)

(* Close the innermost span; returns its whole duration and whether a
   crossing still encloses it. *)
let close_span t (st, sp) =
  let ts = now () in
  sp.sp_busy <- sp.sp_busy + ts - max sp.sp_start t.q_start;
  let rest = match !st with _ :: rest -> rest | [] -> [] in
  st := rest;
  (* a live span belongs to the nearest enclosing crossing and to any
     recorder span between the two *)
  let rec credit = function
    | ({ sp_kind = Recorder; _ } as e) :: more ->
        e.sp_live <- sp.sp_busy;
        credit more
    | ({ sp_kind = Crossing; _ } as e) :: _ -> e.sp_live <- sp.sp_busy
    | _ -> ()
  in
  if sp.sp_kind = Live then credit rest;
  (ts - sp.sp_start, List.exists (fun e -> e.sp_kind = Crossing) rest)

let protect_span t h f =
  match f () with
  | v ->
      let r = close_span t h in
      (v, r)
  | exception e ->
      ignore (close_span t h);
      raise e

(* ---- the crossing span ---- *)

(* A successful execve crossing builds the new image (decode, compile,
   link) before it returns; that is engine work, so its time goes to
   [p_exec]. The recorder's tap is the replay layer's, so it goes to
   [p_rec]. Neither is in the WALI layer's busy time or samples. *)
let crossing t ~sys ~name (run : unit -> Rt.host_outcome) : Rt.host_outcome =
  let h = open_span t Crossing in
  let outcome, (total, nested) = protect_span t h run in
  let sp = snd h and p = t.cur in
  let exec = match outcome with Rt.H_exec _ -> true | _ -> false in
  if sys then begin
    p.p_crossings <- p.p_crossings + 1;
    p.p_names <- name :: p.p_names
  end;
  let busy = sp.sp_busy - sp.sp_rec in
  if exec then p.p_exec <- p.p_exec + sp.sp_busy
  else begin
    if not nested then begin
      p.p_busy <- p.p_busy + busy;
      p.p_rec <- p.p_rec + sp.sp_rec;
      p.p_blocked <- p.p_blocked + total - sp.sp_busy
    end;
    if sys then begin
      Samples.add t.busy busy;
      Samples.add t.live sp.sp_live;
      Samples.add t.tap (busy - sp.sp_live)
    end
  end;
  match outcome with
  | Rt.H_return [ Values.I64 r ] when Int64.compare r 0L < 0 ->
      p.p_errnos <- p.p_errnos + 1;
      outcome
  | Rt.H_fork cb ->
      Rt.H_fork
        (fun child ->
          let t0 = now () in
          let pid = cb child in
          p.p_forks <- p.p_forks + 1;
          p.p_fork <- p.p_fork + now () - t0;
          pid)
  | Rt.H_exec mk ->
      Rt.H_exec
        (fun () ->
          let t0 = now () in
          let m = mk () in
          p.p_execs <- p.p_execs + 1;
          p.p_exec <- p.p_exec + now () - t0;
          m)
  | _ -> outcome

let sys_prefix = "SYS_"

(** [Interface.resolver] with a crossing span around every host function
    it returns. *)
let resolver t (eng : Wali.Engine.t) : Link.resolver =
 fun ~module_name ~name ->
  match Wali.Interface.resolver eng ~module_name ~name with
  | Some (Rt.E_func (Rt.Host_func h)) ->
      let n = String.length sys_prefix in
      let sys = String.length name > n && String.sub name 0 n = sys_prefix in
      let cname = if sys then String.sub name n (String.length name - n) else name in
      Some
        (Rt.E_func
           (Rt.Host_func
              {
                h with
                hf_fn = (fun m args -> crossing t ~sys ~name:cname (fun () -> h.hf_fn m args));
              }))
  | r -> r

(* ---- the live span, and the recorder's tap around it ---- *)

let interposer t (inner : Wali.Engine.interposer option) : Wali.Engine.interposer
    =
  let timed_live live () = fst (protect_span t (open_span t Live) live) in
  match inner with
  | None ->
      {
        Wali.Engine.ip_dispatch = (fun _ _ _ _ _ live -> timed_live live ());
        ip_poll = (fun _ _ _ -> ());
        ip_signal = (fun _ _ _ ~signo:_ ~status:_ -> ());
        ip_virtual_signals = false;
      }
  | Some ip ->
      {
        ip with
        Wali.Engine.ip_dispatch =
          (fun eng p name m args live ->
            let h = open_span t Recorder in
            let o, _ =
              protect_span t h (fun () ->
                  ip.Wali.Engine.ip_dispatch eng p name m args (timed_live live))
            in
            let st, sp = h in
            let tap = sp.sp_busy - sp.sp_live in
            Samples.add t.rec_tap tap;
            (match !st with
            | ({ sp_kind = Crossing; _ } as c) :: _ -> c.sp_rec <- tap
            | _ -> ());
            o);
      }

(* ---- launch: the calls [Interface.spawn_init] makes, with the image
   build split into decode, compile and link ---- *)

let launch t (eng : Wali.Engine.t) ~binary ~argv : Wali.Engine.proc =
  let p = t.cur in
  let name = match argv with a :: _ -> Filename.basename a | [] -> "wali-app" in
  let t0 = now () in
  let m = Binary.decode ~name binary in
  let t1 = now () in
  let poll = eng.Wali.Engine.poll_scheme and fuse = eng.Wali.Engine.fuse in
  let cm = Code.compile_module ~poll ~fuse m in
  (* seed the engine's cache the way [Engine.build_image] would, so a
     later exec of the same image hits it as it does untraced *)
  Hashtbl.replace Wali.Engine.compile_cache (Digest.string binary, name, poll, fuse) cm;
  let t2 = now () in
  let inst, _ = Link.instantiate ~name (resolver t eng) cm in
  let t3 = now () in
  let kernel = eng.Wali.Engine.kernel in
  let task = Kernel.Task.make_init kernel ~comm:name in
  Wali.Engine.setup_stdio eng task;
  let mach = Rt.Machine.create inst in
  mach.Rt.m_pid <- task.Kernel.Task.tid;
  mach.Rt.poll_hook <- Some (Wali.Engine.poll_hook eng);
  Wali.Engine.install_prof eng mach;
  let proc =
    {
      Wali.Engine.pr_task = task;
      pr_sys = Kernel.Syscalls.make_ctx kernel task eng.Wali.Engine.futexes;
      pr_shared = Wali.Engine.make_pshared eng ~inst ~argv ~env:[] ~binary;
      pr_machine = Some mach;
      pr_result = None;
    }
  in
  Wali.Engine.register_proc eng proc;
  let entry = Rt.exported_func inst "_start" in
  ignore
    (Fiber.spawn name (fun () ->
         Wali.Engine.run_machine_body eng proc mach ~fresh_entry:true
           ~entry:(Some entry) ~args:[]));
  p.p_decode <- t1 - t0;
  p.p_compile <- t2 - t1;
  p.p_link <- t3 - t2;
  p.p_launch <- now () - t0;
  proc

(** Run one program traced, from kernel boot to exit, the way
    [Interface.run_program] (or, with [~record], [Recorder.record] plus
    [Trace.encode]) runs it. Returns the per-program figures; [p_ok] is
    left for the caller to judge from the returned status and output. *)
let run_program t ~(boot : unit -> Kernel.Task.kernel) ~policy ~record ~app
    ~binary ~argv : prog * int * string =
  Hashtbl.reset Wali.Engine.compile_cache;
  Hashtbl.reset t.stacks;
  let p = fresh_prog () in
  t.cur <- p;
  let t0 = now () in
  let kernel = boot () in
  p.p_boot <- now () - t0;
  let eng = Wali.Engine.create ~policy kernel in
  let rc = if record then Some (Replay.Recorder.make ()) else None in
  eng.Wali.Engine.interpose <-
    Some (interposer t (Option.map Replay.Recorder.interposer rc));
  let status = ref 0 in
  let saved_ref = !Wali.Interface.resolver_ref in
  Wali.Interface.resolver_ref := resolver t;
  Fiber.set_observer (Some (observer t));
  t.q_start <- now ();
  Fun.protect
    ~finally:(fun () ->
      Fiber.set_observer None;
      Wali.Interface.resolver_ref := saved_ref)
    (fun () ->
      Fiber.run (fun () ->
          let init = launch t eng ~binary ~argv in
          eng.Wali.Engine.on_proc_exit <-
            Some
              (fun q st ->
                Option.iter
                  (fun rc ->
                    Replay.Recorder.emit rc
                      (Replay.Trace.E_exit
                         { Replay.Trace.ex_pid = q.Wali.Engine.pr_task.Kernel.Task.tid;
                           ex_status = st }))
                  rc;
                if q == init then status := st)));
  Option.iter
    (fun rc ->
      let te = now () in
      let trace =
        {
          Replay.Trace.tr_header =
            {
              Replay.Trace.h_app = app;
              h_argv = argv;
              h_env = [];
              h_digest = Digest.string binary;
              h_poll = Replay.Trace.poll_scheme_name eng.Wali.Engine.poll_scheme;
            };
          tr_events = Array.of_list (List.rev rc.Replay.Recorder.rc_events);
          tr_status = !status;
        }
      in
      p.p_trace_bytes <- String.length (Replay.Trace.encode trace);
      p.p_encode <- now () - te)
    rc;
  p.p_wall <- now () - t0;
  (p, !status, Kernel.Task.console_output kernel)
