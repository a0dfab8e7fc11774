(** Native-process runner: executes a MiniC program compiled to host
    closures as a kernel task — the "native" side of the Fig 8
    comparison and the execution engine inside containers.

    The guest lives the engine's process life through {!Guest}: syscalls
    go through the WALI dispatcher over the process's flat memory (the
    work a native libc does against the kernel ABI is the same
    translation), signals are delivered at loop headers and on every
    syscall return with handlers resolved through the fnptr table,
    argv/env come from the proc, and exit, fatal signal or fault end it
    with the status a Wasm run would give. fork/exec are not supported
    in this backend because the host call stack is not cloneable — the
    benchmark workloads are single-process (documented in DESIGN.md). *)

open Kernel

(** Start [c] as the guest of [task], on a fiber of its own. *)
let launch (c : Minic.Mc_native.compiled) ~argv ~env eng (task : Task.t) : unit =
  let mem = Wasm.Rt.Memory.create ~min_pages:64 ~max_pages:2048 in
  let p, m =
    Guest.make_proc eng task mem
      ~shared:
        (Wali.Engine.new_pshared eng ~heap_base:c.Minic.Mc_native.nc_heap_base
           ~argv ~env ~binary:"")
  in
  let state = ref None in
  let call _ ~fnptr ~signo =
    match (Minic.Mc_native.func_of_slot c fnptr, !state) with
    | Some f, Some st ->
        ignore (f st [| signo |]);
        true
    | _ -> false
  in
  let deliver () = Wali.Engine.deliver_signals eng p m call in
  m.Wasm.Rt.poll_hook <- Some (fun _ -> deliver ());
  let hooks =
    {
      Minic.Mc_native.h_sys =
        (fun name args -> Minic.Mc_native.wrap (Guest.syscall eng m name args));
      h_builtin =
        (fun b args ->
          match b with
          | "thread_spawn" -> -Errno.to_code Errno.ENOSYS
          | _ ->
              Wali.Interface.env_method p mem
                (Minic.Mc_wasm.builtin_import_name b) args);
      h_poll = deliver;
    }
  in
  let st = Minic.Mc_native.make_state c ~mem ~hooks in
  state := Some st;
  let main () =
    if Hashtbl.mem c.Minic.Mc_native.nc_func_idx "__rt_init" then
      ignore (Minic.Mc_native.call c st "__rt_init" [||]);
    let margs =
      if c.Minic.Mc_native.nc_main_params = 0 then [||]
      else
        let ld a = Int32.to_int (Wasm.Rt.Memory.load32 mem a) in
        match (c.Minic.Mc_native.nc_argc_addr, c.Minic.Mc_native.nc_argv_addr) with
        | Some ac, Some av -> [| ld ac; ld av |]
        | _ -> [| 0; 0 |]
    in
    Wasm.Interp.R_exit (Minic.Mc_native.call c st "main" margs)
  in
  ignore
    (Fiber.spawn ("native-" ^ task.Task.comm) (fun () ->
         Wali.Engine.run_guest eng p main))

(** Boot a kernel and run [c] to completion as its initial process. *)
let run ?(argv = [ "prog" ]) ?(env = []) (c : Minic.Mc_native.compiled) :
    Guest.result =
  Guest.run (Task.boot ()) ~comm:(List.hd argv) (launch c ~argv ~env)
