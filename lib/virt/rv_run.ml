(** qemu-user-style runner: executes an RV32 guest binary by pure
    interpretation, bridging guest ecalls to the simulated kernel — the
    "QEMU (no KVM)" side of the Fig 8 comparison.

    Like qemu-user, startup is cheap (load two flat segments, point the
    PC at _start); execution pays the per-instruction decode cost. fork
    IS supported: the guest machine state (registers + memory) is plain
    data, so the child is a structural clone. *)

open Kernel

type result = {
  r_status : int;
  r_output : string;
  r_vm_peak : int;
  r_insns : int64; (* guest instructions executed *)
}

let mem_pages = 512 (* 32 MiB guest address space *)

let load_image (img : Minic.Mc_rv.rv_image) : Wasm.Rt.Memory.t =
  let mem = Wasm.Rt.Memory.create ~min_pages:mem_pages ~max_pages:(mem_pages * 4) in
  Wasm.Rt.Memory.write_string mem ~addr:0 img.Minic.Mc_rv.rv_data;
  Wasm.Rt.Memory.write_string mem ~addr:img.Minic.Mc_rv.rv_code_base
    img.Minic.Mc_rv.rv_code;
  mem

exception Guest_exit of int

let start ?(kernel : Task.kernel option) ?(argv = [ "prog" ]) ?(env = [])
    (img : Minic.Mc_rv.rv_image) : Task.kernel * (unit -> result option) =
  let kernel = match kernel with Some k -> k | None -> Task.boot () in
  let eng = Wali.Engine.create kernel in
  let result = ref None in
  let argv_arr = Array.of_list argv and env_arr = Array.of_list env in
  (* Launch one guest machine as one kernel task; fork recurses. *)
  let rec launch (task : Task.t) (rv : Riscv.Rv_mach.t) : unit =
    let mem = rv.Riscv.Rv_mach.mem in
    let p, wmachine =
      Native_run.make_proc eng task mem ~heap_base:img.Minic.Mc_rv.rv_heap_base
    in
    ignore p;
    let ecall (m : Riscv.Rv_mach.t) : unit =
      let nr = Riscv.Rv_mach.get m Riscv.Rv_asm.a7 in
      let arg i = Riscv.Rv_mach.get m (Riscv.Rv_asm.a0 + i) in
      let setret v = Riscv.Rv_mach.set m Riscv.Rv_asm.a0 v in
      match Riscv.Rv_linux.builtin_of_nr nr with
      | Some b -> (
          let vec =
            match b with
            | "envc" | "env_len" | "env_copy" -> env_arr
            | _ -> argv_arr
          in
          match b with
          | "argc" | "envc" -> setret (Array.length vec)
          | "argv_len" | "env_len" ->
              let i = arg 0 in
              setret
                (if i < 0 || i >= Array.length vec then -1
                 else String.length vec.(i) + 1)
          | "argv_copy" | "env_copy" ->
              let addr = arg 0 and i = arg 1 in
              if i < 0 || i >= Array.length vec then setret (-1)
              else begin
                Wasm.Rt.Memory.write_string mem ~addr (vec.(i) ^ "\000");
                setret (String.length vec.(i) + 1)
              end
          | "memcopy" ->
              Wasm.Rt.Memory.copy mem ~dst:(arg 0) ~src:(arg 1) ~len:(arg 2);
              setret 0
          | "memfill" ->
              Wasm.Rt.Memory.fill mem ~dst:(arg 0) ~byte:(arg 1) ~len:(arg 2);
              setret 0
          | _ -> setret (-Errno.to_code Errno.ENOSYS))
      | None -> (
          match Riscv.Rv_linux.name_of_nr nr with
          | None -> setret (-Errno.to_code Errno.ENOSYS)
          | Some "exit" | Some "exit_group" -> raise (Guest_exit (arg 0))
          | Some "fork" | Some "vfork" ->
              (* clone the guest: registers + memory *)
              let child_task =
                Task.clone_task kernel task ~thread:false ~share_files:false
              in
              let cmem = Wasm.Rt.Memory.clone mem in
              let crv =
                Riscv.Rv_mach.create ~mem:cmem ~entry:(m.Riscv.Rv_mach.pc + 4)
                  ~sp_init:0
              in
              Array.blit m.Riscv.Rv_mach.regs 0 crv.Riscv.Rv_mach.regs 0 32;
              Riscv.Rv_mach.set crv Riscv.Rv_asm.a0 0;
              setret child_task.Task.tgid;
              ignore
                (Fiber.spawn
                   (Printf.sprintf "rv-pid%d" child_task.Task.tid)
                   (fun () -> launch child_task crv))
          | Some name -> (
              (* a handler reads only its own arity's worth of a0..a5 *)
              let vals =
                Array.init 6 (fun i -> Wasm.Values.I64 (Int64.of_int (arg i)))
              in
              match Wali.Interface.dispatch eng name wmachine vals with
              | Wasm.Rt.H_return [ Wasm.Values.I64 r ] ->
                  setret (Int64.to_int r)
              | _ -> setret (-Errno.to_code Errno.ENOSYS)))
    in
    let poll () =
      Fiber.yield ();
      (match task.Task.group.Task.exiting with
      | Some st -> raise (Guest_exit (st lsr 8))
      | None -> ());
      if Task.has_deliverable_signal task then begin
        match Task.next_signal task with
        | Some (signo, action)
          when action.Ktypes.sa_handler = Ktypes.sig_dfl
               && (Ktypes.default_disposition signo = Ktypes.Term
                  || Ktypes.default_disposition signo = Ktypes.Core) ->
            raise (Guest_exit (128 + signo))
        | _ -> () (* guest handlers not modelled under emulation *)
      end
    in
    let status =
      try
        Riscv.Rv_mach.run rv ~ecall ~poll ~poll_interval:4096 ();
        Ktypes.wexit_status 0
      with
      | Guest_exit code -> Ktypes.wexit_status code
      | Riscv.Rv_mach.Rv_trap msg ->
          ignore msg;
          Ktypes.wsignal_status Ktypes.sigsegv
    in
    Task.exit_task kernel task ~status;
    if !result = None && task.Task.ppid = 0 then
      result :=
        Some
          {
            r_status = status;
            r_output = "";
            r_vm_peak = task.Task.vm_peak;
            r_insns = rv.Riscv.Rv_mach.steps;
          }
  in
  let task = Task.make_init kernel ~comm:(List.hd argv) in
  Wali.Engine.setup_stdio eng task;
  let mem = load_image img in
  let rv =
    Riscv.Rv_mach.create ~mem ~entry:img.Minic.Mc_rv.rv_entry
      ~sp_init:img.Minic.Mc_rv.rv_sp_init
  in
  ignore (Fiber.spawn "rv-init" (fun () -> launch task rv));
  (kernel, fun () -> !result)

(** Boot a kernel and run [img] to completion. [Fiber.run] returns only
    once every fiber has finished, so the result is ready when it does; a
    guest that blocks forever ends in [Fiber.Deadlock]. *)
let run ?(argv = [ "prog" ]) ?(env = []) (img : Minic.Mc_rv.rv_image) : result =
  let started = ref None in
  Fiber.run (fun () -> started := Some (start ~argv ~env img));
  let kernel, get = Option.get !started in
  match get () with
  | Some r -> { r with r_output = Task.console_output kernel }
  | None -> failwith "rv run did not complete"
