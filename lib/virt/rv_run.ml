(** qemu-user-style runner: executes an RV32 guest binary by pure
    interpretation, bridging guest ecalls to the simulated kernel — the
    "QEMU (no KVM)" side of the Fig 8 comparison.

    Like qemu-user, startup is cheap (load two flat segments, point the
    PC at _start); execution pays the per-instruction decode cost. fork
    IS supported: the guest machine state (registers + memory) is plain
    data, so the child is a structural clone. The guest lives the
    engine's process life through {!Guest}: signals are delivered every
    {!Riscv.Rv_mach.poll_interval} instructions and on every syscall
    return, a handler runs as a nested call that saves and restores the
    registers and pc, argv/env come from the proc, and exit, fatal signal
    or fault end it with the status a Wasm run would give. *)

open Kernel

let mem_pages = 512 (* 32 MiB guest address space *)

let load_image (img : Minic.Mc_rv.rv_image) : Wasm.Rt.Memory.t =
  let mem = Wasm.Rt.Memory.create ~min_pages:mem_pages ~max_pages:(mem_pages * 4) in
  Wasm.Rt.Memory.write_string mem ~addr:0 img.Minic.Mc_rv.rv_data;
  Wasm.Rt.Memory.write_string mem ~addr:img.Minic.Mc_rv.rv_code_base
    img.Minic.Mc_rv.rv_code;
  mem

(* Run guest machine [rv] as [task] on a fiber of its own; fork recurses. *)
let rec spawn (img : Minic.Mc_rv.rv_image) ~shared eng (task : Task.t)
    (rv : Riscv.Rv_mach.t) : unit =
  let open Riscv in
  let mem = rv.Rv_mach.mem in
  let p, wm = Guest.make_proc eng task mem ~shared in
  let code_base = img.Minic.Mc_rv.rv_code_base in
  let code_end = code_base + String.length img.Minic.Mc_rv.rv_code in
  let rec call _ ~fnptr ~signo =
    fnptr >= code_base && fnptr < code_end && fnptr land 3 = 0
    && (Rv_mach.call_nested rv ~ecall ~poll ~entry:fnptr ~arg:signo;
        true)
  and deliver () = Wali.Engine.deliver_signals eng p wm call
  and poll () =
    Fiber.yield ();
    deliver ()
  and ecall (m : Rv_mach.t) : unit =
    let nr = Rv_mach.get m Rv_asm.a7 in
    let arg i = Rv_mach.get m (Rv_asm.a0 + i) in
    let setret v = Rv_mach.set m Rv_asm.a0 v in
    match List.find_opt (fun (_, n) -> n = nr) Rv_linux.builtins with
    | Some ("memcopy", _) ->
        Wasm.Rt.Memory.copy mem ~dst:(arg 0) ~src:(arg 1) ~len:(arg 2);
        setret 0
    | Some ("memfill", _) ->
        Wasm.Rt.Memory.fill mem ~dst:(arg 0) ~byte:(arg 1) ~len:(arg 2);
        setret 0
    | Some (b, _) ->
        setret
          (Wali.Interface.env_method p mem
             (Minic.Mc_wasm.builtin_import_name b) [| arg 0; arg 1 |])
    | None -> (
        match Rv_linux.name_of_nr nr with
        | None -> setret (-Errno.to_code Errno.ENOSYS)
        | Some ("fork" | "vfork") ->
            (* clone the guest: registers + memory *)
            let child_task =
              Task.clone_task eng.Wali.Engine.kernel task ~thread:false
                ~share_files:false
            in
            let crv =
              Rv_mach.create ~mem:(Wasm.Rt.Memory.clone mem)
                ~entry:(m.Rv_mach.pc + 4) ~sp_init:0
            in
            Array.blit m.Rv_mach.regs 0 crv.Rv_mach.regs 0 32;
            Rv_mach.set crv Rv_asm.a0 0;
            setret child_task.Task.tgid;
            let shared = Wali.Engine.fork_pshared eng p.Wali.Engine.pr_shared in
            ignore
              (Fiber.spawn
                 (Printf.sprintf "rv-pid%d" child_task.Task.tid)
                 (fun () -> spawn img ~shared eng child_task crv))
        | Some name ->
            (* a handler reads only its own arity's worth of a0..a5 *)
            setret (Guest.syscall eng wm name (Array.init 6 arg)))
  in
  wm.Wasm.Rt.poll_hook <- Some (fun _ -> deliver ());
  Wali.Engine.run_guest eng p (fun () ->
      Rv_mach.run rv ~ecall ~poll;
      Wasm.Interp.R_done [])

(** Start [img] as the guest of [task], on a fiber of its own. *)
let launch (img : Minic.Mc_rv.rv_image) ~argv ~env eng (task : Task.t) : unit =
  let rv =
    Riscv.Rv_mach.create ~mem:(load_image img) ~entry:img.Minic.Mc_rv.rv_entry
      ~sp_init:img.Minic.Mc_rv.rv_sp_init
  in
  let shared =
    Wali.Engine.new_pshared eng ~heap_base:img.Minic.Mc_rv.rv_heap_base ~argv
      ~env ~binary:""
  in
  ignore (Fiber.spawn "rv-init" (fun () -> spawn img ~shared eng task rv))

(** Boot a kernel and run [img] to completion as its initial process. *)
let run ?(argv = [ "prog" ]) ?(env = []) (img : Minic.Mc_rv.rv_image) :
    Guest.result =
  Guest.run (Task.boot ()) ~comm:(List.hd argv) (launch img ~argv ~env)
