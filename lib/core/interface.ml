(** The WALI host-function interface: ~150 name-bound virtual syscalls
    plus the argv/env support methods (paper §3, §3.4), forming the union
    across supported ISAs (§3.5).

    Every WALI syscall is imported as [("wali", "SYS_" ^ name)] with all
    arguments normalized to i64 and an i64 result carrying the kernel
    convention (negative values are -errno). A binary's import section is
    therefore its complete syscall manifest, which is what the Table 1
    porting analysis inspects. Each syscall is declared once, in
    {!syscalls}; linking binds an import to its entry, so a crossing runs
    the entry's handler without looking the name up again.

    Each handler unmarshals i64 arguments, performs address-space
    translation into the caller's linear memory (zero-copy where the
    kernel ABI allows), invokes the kernel syscall, and encodes the
    result with the raw kernel convention: an i64 that is non-negative on
    success and -errno on failure. Most handlers are under ten lines —
    the property that keeps the TCB thin. *)

open Wasm
open Kernel

let import_module = "wali"
let import_name name = "SYS_" ^ name

(** Environment/argument support methods (paper §3.4). *)
let env_methods =
  [ ("get_argc", 0); ("get_argv_len", 1); ("copy_argv", 2);
    ("get_envc", 0); ("get_env_len", 1); ("copy_env", 2) ]

(* ---- result encoding ---- *)

let errno_ret (e : Errno.t) = Int64.of_int (-Errno.to_code e)
let enc_unit = function Ok () -> 0L | Error e -> errno_ret e
let enc_int = function Ok n -> Int64.of_int n | Error e -> errno_ret e

(* ------------------------------------------------------------------ *)
(* fork / exec / thread machinery                                       *)
(* ------------------------------------------------------------------ *)

let do_fork eng (p : Engine.proc) (child_m : Rt.machine) : int64 =
  let child_task =
    Task.clone_task eng.Engine.kernel p.Engine.pr_task ~thread:false
      ~share_files:false
  in
  let shared = Engine.fork_pshared eng p.Engine.pr_shared in
  child_m.Rt.m_pid <- child_task.Task.tid;
  let cp = Engine.add_proc eng child_task ~shared ~machine:child_m in
  (* Instruction accounting: the child machine clones the parent's step
     counter, so retire only what it executes from here on. (The cloned
     prof_hook likewise re-baselines on the child's first sample.) *)
  (match eng.Engine.observe with
  | Some o ->
      Observe.Sink.instr_baseline o ~pid:child_task.Task.tid
        ~steps:child_m.Rt.steps ~fused:child_m.Rt.fused
  | None -> ());
  ignore
    (Fiber.spawn
       (Printf.sprintf "wali-pid%d" child_task.Task.tid)
       (fun () ->
         Engine.run_machine_body eng cp child_m ~fresh_entry:false ~entry:None
           ~args:[]));
  Int64.of_int child_task.Task.tgid

(* Read a NULL-terminated array of guest string pointers. *)
let read_str_array mem addr : string list =
  if addr = 0 then []
  else begin
    let rec go i acc =
      if i > 4096 then raise Abi.Efault
      else begin
        let p = Abi.u32i mem (addr + (4 * i)) in
        if p = 0 then List.rev acc else go (i + 1) (Abi.cstring mem p :: acc)
      end
    in
    go 0 []
  end

(* Forward declaration knot: execve needs the resolver, the resolver
   needs dispatch, dispatch needs execve. *)
let resolver_ref :
    (Engine.t -> module_name:string -> name:string -> Rt.extern option) ref =
  ref (fun _ ~module_name:_ ~name:_ -> None)

let do_execve eng (p : Engine.proc) mem ~path_ptr ~argv_ptr ~envp_ptr :
    Rt.host_outcome =
  let path = Abi.cstring mem path_ptr in
  let argv = read_str_array mem argv_ptr in
  let envp = read_str_array mem envp_ptr in
  match Syscalls.execve_load p.Engine.pr_sys ~path with
  | Error e -> Rt.H_return [ Values.I64 (errno_ret e) ]
  | Ok binary -> (
      match
        Engine.build_image eng
          ~resolver:(fun ~module_name ~name ->
            !resolver_ref eng ~module_name ~name)
          ~binary ~name:(Filename.basename path)
      with
      | exception _ -> Rt.H_return [ Values.I64 (errno_ret Errno.ENOEXEC) ]
      | inst ->
          Rt.H_exec
            (fun () ->
              let task = p.Engine.pr_task in
              (* the new image starts from a fresh step counter *)
              Option.iter (Engine.retire_machine eng) p.Engine.pr_machine;
              (* POSIX: caught signals reset to default across exec. *)
              let actions = task.Task.group.Task.actions in
              Array.iteri
                (fun i a ->
                  if a.Ktypes.sa_handler <> Ktypes.sig_ign
                     && a.Ktypes.sa_handler <> Ktypes.sig_dfl then
                    actions.(i) <- Ktypes.sigaction_default)
                actions;
              (* The virtual environment travels to the new image with the
                 process (the paper's per-pid shared-segment technique,
                 realized directly in the engine). *)
              p.Engine.pr_shared <-
                Engine.make_pshared eng ~inst ~argv ~env:envp ~binary;
              let m' = Engine.new_machine eng inst ~tid:task.Task.tid in
              (match Rt.exported_func inst "_start" with
              | Rt.Wasm_func { wf_inst; wf_code } ->
                  Rt.Machine.push_frame m' wf_inst wf_code
              | Rt.Host_func _ -> Values.trap "_start is a host function"
              | exception Values.Trap _ -> Values.trap "%s: no _start" path);
              p.Engine.pr_machine <- Some m';
              m'))

let do_thread_spawn eng (p : Engine.proc) (m : Rt.machine) ~entry_idx ~arg :
    int64 =
  match Engine.handler_func m.Rt.m_inst entry_idx with
  | None -> errno_ret Errno.EINVAL
  | Some f ->
      let child_task =
        Task.clone_task eng.Engine.kernel p.Engine.pr_task ~thread:true
          ~share_files:true
      in
      (* Instance-per-thread: per-thread execution state lives in the new
         machine; the process image (memory, tables, code) is shared. *)
      let tm = Engine.new_machine eng m.Rt.m_inst ~tid:child_task.Task.tid in
      let cp =
        Engine.add_proc eng child_task ~shared:p.Engine.pr_shared ~machine:tm
      in
      ignore
        (Fiber.spawn
           (Printf.sprintf "wali-tid%d" child_task.Task.tid)
           (fun () ->
             Engine.run_machine_body eng cp tm ~fresh_entry:true
               ~entry:(Some f)
               ~args:[ Values.I32 (Int32.of_int arg) ]));
      Int64.of_int child_task.Task.tid

(* ------------------------------------------------------------------ *)
(* The syscall table                                                    *)
(* ------------------------------------------------------------------ *)

(** What a crossing runs. Almost every handler returns the raw i64
    result; the calls that change process structure (fork, clone,
    execve, exit) hand the engine an outcome instead. *)
type handler =
  | Ret of (Engine.proc -> Rt.machine -> Values.value array -> int64)
  | Op of
      (Engine.t -> Engine.proc -> Rt.machine -> Values.value array ->
      Rt.host_outcome)

type syscall = {
  name : string;
  arity : int; (* the Linux argument count *)
  (* Implementation metadata reported in Table 2. *)
  loc : int; (* handler size, lines of code *)
  stateful : bool; (* maintains WALI-internal state *)
  implemented : bool; (* false = auto-generated ENOSYS passthrough stub *)
  handler : handler;
}

let sys ?(loc = 4) ?(stateful = false) name arity f =
  { name; arity; loc; stateful; implemented = true; handler = Ret f }

let op ~loc ~stateful name arity f =
  { name; arity; loc; stateful; implemented = true; handler = Op f }

(* ---- argument decoding: every argument arrives as an i64 ---- *)

let a64 (a : Values.value array) i = Values.as_i64 a.(i)
let ai a i = Int64.to_int (a64 a i)

(* guest pointers are u32s carried in i64s *)
let ap a i = Int64.to_int (Int64.logand (a64 a i) 0xFFFFFFFFL)
let ctx (p : Engine.proc) = p.Engine.pr_sys
let shared (p : Engine.proc) = p.Engine.pr_shared
let str m a i = Abi.cstring (Rt.memory0 m) (ap a i)
let buf m a i len = Abi.buffer (Rt.memory0 m) ~addr:(ap a i) ~len

(* An [Error] anywhere in a handler's chain is its errno return. *)
let ( let* ) r f = match r with Ok x -> f x | Error e -> errno_ret e
let zero _ _ _ = 0L
let poll (m : Rt.machine) = match m.Rt.poll_hook with Some f -> f m | None -> ()

(* /proc/self/mem interposition (paper §3.6: Filesystem Sandboxing). *)
let forbidden_path path =
  path = "/proc/self/mem"
  || (String.length path >= 6 && String.sub path 0 6 = "/proc/"
     && Filename.basename path = "mem")

(* Linux caps one transfer at MAX_RW_COUNT (INT_MAX rounded down to a
   page); a size_t count above it, or "negative", is clamped. *)
let max_rw_count = 0x7FFFF000

let size_t a i =
  if Int64.unsigned_compare (a64 a i) (Int64.of_int max_rw_count) > 0 then
    max_rw_count
  else ai a i

(* ---- handlers shared by several entries, or too long to inline ---- *)

let openat p m a ~dirfd ~path:pi ~flags:fi =
  let path = str m a pi in
  if forbidden_path path then errno_ret Errno.EACCES
  else
    enc_int
      (Syscalls.openat (ctx p) ~dirfd ~path ~flags:(ai a fi) ~mode:(ai a (fi + 1)))

let stat ~follow p m a =
  let* st =
    Syscalls.stat_path (ctx p) ~dirfd:Syscalls.at_fdcwd ~path:(str m a 0) ~follow
  in
  Abi.write_kstat (Rt.memory0 m) (ap a 1) st;
  0L

(* synthetic tmpfs-shaped statfs: type, bsize, blocks, bfree *)
let statfs _ m a =
  let mem = Rt.memory0 m and b = ap a 1 in
  Abi.set_i64 mem b 0x01021994L;
  Abi.set_i64 mem (b + 8) 4096L;
  Abi.set_i64 mem (b + 16) 1048576L;
  Abi.set_i64 mem (b + 24) 524288L;
  0L

let faccessat ~dirfd ~path:pi p m a =
  enc_unit (Syscalls.faccessat (ctx p) ~dirfd ~path:(str m a pi) ~amode:(ai a (pi + 1)))

(* Linux refuses a non-positive bufsiz before looking the path up. *)
let readlinkat ~dirfd ~path:pi p m a =
  let len = ai a (pi + 2) in
  if len <= 0 then errno_ret Errno.EINVAL
  else
    let* target = Syscalls.readlinkat (ctx p) ~dirfd ~path:(str m a pi) in
    let n = min (String.length target) len in
    Abi.write_bytes (Rt.memory0 m) (ap a (pi + 1)) (String.sub target 0 n);
    Int64.of_int n

let renameat p m a =
  enc_unit
    (Syscalls.renameat (ctx p) ~olddirfd:(ai a 0) ~oldpath:(str m a 1)
       ~newdirfd:(ai a 2) ~newpath:(str m a 3))

let chown p m a =
  enc_unit
    (Syscalls.fchownat (ctx p) ~dirfd:Syscalls.at_fdcwd ~path:(str m a 0)
       ~uid:(ai a 1) ~gid:(ai a 2))

let pipe2 ~flags p m a =
  let* r, w = Syscalls.pipe2 (ctx p) ~flags in
  let mem = Rt.memory0 m in
  Abi.set_i32i mem (ap a 0) r;
  Abi.set_i32i mem (ap a 0 + 4) w;
  0L

let timeout_ms mem ptr =
  if ptr = 0 then -1
  else Int64.to_int (Int64.div (Abi.read_timespec_ns mem ptr) 1_000_000L)

let ppoll ~timeout p m a =
  let mem = Rt.memory0 m in
  let fds = Abi.read_pollfds mem ~addr:(ap a 0) ~cnt:(ai a 1) in
  let timeout_ms = timeout mem a in
  let* n, revents = Syscalls.poll (ctx p) ~fds ~timeout_ms in
  Abi.write_revents mem ~addr:(ap a 0) revents;
  Int64.of_int n

let select p m a =
  let mem = Rt.memory0 m in
  let nfds = max 0 (min (ai a 0) 1024) in
  let rd = ap a 1 and wr = ap a 2 in
  let read_set addr =
    if addr = 0 then []
    else
      List.filter
        (fun fd -> Abi.u8 mem (addr + (fd / 8)) land (1 lsl (fd mod 8)) <> 0)
        (List.init nfds Fun.id)
  in
  let rfds = read_set rd and wfds = read_set wr in
  let fds =
    List.map (fun fd -> (fd, Ktypes.pollin)) rfds
    @ List.map (fun fd -> (fd, Ktypes.pollout)) wfds
  in
  let* _n, revents = Syscalls.poll (ctx p) ~fds ~timeout_ms:(timeout_ms mem (ap a 4)) in
  (* rewrite the bitmaps *)
  let clear addr =
    if addr <> 0 then
      for i = 0 to ((nfds + 7) / 8) - 1 do
        Abi.set_u8 mem (addr + i) 0
      done
  in
  clear rd;
  clear wr;
  let ready = ref 0 in
  List.iteri
    (fun i r ->
      if r <> 0 then begin
        incr ready;
        let fd, events = List.nth fds i in
        let addr = if events = Ktypes.pollin then rd else wr in
        if addr <> 0 then
          Abi.set_u8 mem
            (addr + (fd / 8))
            (Abi.u8 mem (addr + (fd / 8)) lor (1 lsl (fd mod 8)))
      end)
    revents;
  Int64.of_int !ready

let fork eng p _ _ = Rt.H_fork (fun child -> do_fork eng p child)
let exit_op _ _ _ a = Rt.H_exit (ai a 0)

let wait4 p m a =
  let* r = Syscalls.wait4 (ctx p) ~pid:(ai a 0) ~options:(ai a 2) in
  match r with
  | None -> 0L
  | Some wr ->
      let mem = Rt.memory0 m in
      if ap a 1 <> 0 then Abi.set_i32i mem (ap a 1) wr.Task.wr_status;
      (* rusage: fill ru_utime (timeval) *)
      if ap a 3 <> 0 then Abi.write_timeval mem (ap a 3) ~ns:wr.Task.wr_rusage_utime;
      Int64.of_int wr.Task.wr_pid

let prlimit64 ~resource ~out p m a =
  let* cur, mx = Syscalls.prlimit64 (ctx p) ~resource:(ai a resource) in
  let out = ap a out and mem = Rt.memory0 m in
  if out <> 0 then begin
    Abi.set_i64 mem out cur;
    Abi.set_i64 mem (out + 8) mx
  end;
  0L

let nanosleep ~req p m a =
  enc_unit (Syscalls.nanosleep (ctx p) ~ns:(Abi.read_timespec_ns (Rt.memory0 m) (ap a req)))

let sockaddr_then f p m a =
  match Abi.read_sockaddr (Rt.memory0 m) ~addr:(ap a 1) ~len:(ai a 2) with
  | None -> errno_ret Errno.EINVAL
  | Some addr -> enc_unit (f (ctx p) ~fd:(ai a 0) ~addr)

let accept p m a =
  let* fd = Syscalls.accept (ctx p) ~fd:(ai a 0) in
  let mem = Rt.memory0 m in
  if ap a 1 <> 0 && ap a 2 <> 0 then begin
    let n = Abi.write_sockaddr mem ~addr:(ap a 1) (Socket.A_inet (0x7F000001, 0)) in
    Abi.set_i32i mem (ap a 2) n
  end;
  Int64.of_int fd

let sockname _ m a =
  let mem = Rt.memory0 m in
  let n = Abi.write_sockaddr mem ~addr:(ap a 1) (Socket.A_inet (0x7F000001, 0)) in
  Abi.set_i32i mem (ap a 2) n;
  0L

(* Plain I/O is zero-copy: the kernel reads and writes the guest's own
   linear memory in place (address-space translation, §3.2). *)
let read p m a =
  let b, off = buf m a 1 (ai a 2) in
  enc_int (Syscalls.read (ctx p) ~fd:(ai a 0) ~buf:b ~off ~len:(ai a 2))

let write p m a =
  let b, off = buf m a 1 (ai a 2) in
  enc_int (Syscalls.write (ctx p) ~fd:(ai a 0) ~buf:b ~off ~len:(ai a 2))

(* readv/writev: one kernel call per iovec, stopping at the first short
   transfer; an error after progress reports the progress. *)
let vectored io ~stop_at_eof p m a =
  let mem = Rt.memory0 m in
  let iovs = Abi.read_iovecs mem ~iov:(ap a 1) ~cnt:(ai a 2) in
  let rec go total = function
    | [] -> Int64.of_int total
    | (base, len) :: rest -> (
        let b, off = Abi.buffer mem ~addr:base ~len in
        match io (ctx p) ~fd:(ai a 0) ~buf:b ~off ~len with
        | Ok 0 when stop_at_eof -> Int64.of_int total
        | Ok n -> if n < len then Int64.of_int (total + n) else go (total + n) rest
        | Error e -> if total > 0 then Int64.of_int total else errno_ret e)
  in
  go 0 iovs

let sendfile p _ a =
  let c = ctx p and outfd = ai a 0 and infd = ai a 1 and count = size_t a 3 in
  let tmp = Bytes.create (min count 65536) in
  let rec go total =
    let want = min (Bytes.length tmp) (count - total) in
    if want = 0 then Int64.of_int total
    else
      match Syscalls.read c ~fd:infd ~buf:tmp ~off:0 ~len:want with
      | Ok 0 -> Int64.of_int total
      | Ok n -> (
          match Syscalls.write c ~fd:outfd ~buf:tmp ~off:0 ~len:n with
          | Ok _ -> go (total + n)
          | Error e -> if total > 0 then Int64.of_int total else errno_ret e)
      | Error e -> if total > 0 then Int64.of_int total else errno_ret e
  in
  go 0

let mmap p m a =
  let c = ctx p and sh = shared p in
  let addr = ap a 0 and len = ai a 1 and prot = ai a 2 and flags = ai a 3 in
  let fd = ai a 4 and off = ai a 5 in
  let* file =
    if flags land Ktypes.map_anonymous <> 0 || fd = -1 then Ok None
    else
      match Fdtab.get c.Syscalls.t.Task.fdtab fd with
      | Some { Fdtab.d_kind = Fdtab.F_inode { Vfs.kind = Vfs.Reg b; _ }; _ } ->
          Ok (Some (b, off))
      | Some _ -> Error Errno.EACCES
      | None -> Error Errno.EBADF
  in
  let* addr =
    Mmap_mgr.mmap sh.Engine.ps_mmap ~mem:(Rt.memory0 m) ~addr ~len ~prot ~flags ~file
  in
  Task.charge_vm c.Syscalls.t (Mmap_mgr.align_up len);
  Int64.of_int addr

(* grow-only brk within the mmap pool, as a dedicated region *)
let brk p m a =
  let sh = shared p and req = ap a 0 in
  let cur = sh.Engine.ps_brk in
  if req = 0 || req <= cur then Int64.of_int cur
  else
    match
      Mmap_mgr.mmap sh.Engine.ps_mmap ~mem:(Rt.memory0 m) ~addr:cur
        ~len:(req - cur)
        ~prot:(Ktypes.prot_read lor Ktypes.prot_write)
        ~flags:(Ktypes.map_fixed lor Ktypes.map_anonymous lor Ktypes.map_private)
        ~file:None
    with
    | Ok _ ->
        sh.Engine.ps_brk <- Mmap_mgr.align_up req;
        Int64.of_int sh.Engine.ps_brk
    | Error _ -> Int64.of_int cur

let futex p m a =
  let c = ctx p and mem_id = (shared p).Engine.ps_mem_id in
  let addr = ap a 0 and op = ai a 1 land lnot Ktypes.futex_private in
  if op = Ktypes.futex_wait then begin
    let mem = Rt.memory0 m in
    let timeout_ns = if ap a 3 = 0 then None else Some (Abi.read_timespec_ns mem (ap a 3)) in
    enc_unit
      (Syscalls.futex_wait c ~mem_id ~addr
         ~load:(fun () -> Abi.i32 mem addr)
         ~expected:(Int64.to_int32 (a64 a 2)) ~timeout_ns)
  end
  else if op = Ktypes.futex_wake then
    Int64.of_int (Syscalls.futex_wake c ~mem_id ~addr ~n:(ai a 2))
  else errno_ret Errno.ENOSYS

let at_cwd = Syscalls.at_fdcwd

(** The implemented set, each call declared once: the "critical mass" of
    ~140 calls (§4). Arity is the Linux argument count; LoC reflects this
    repository's handlers. A binary's ("wali", "SYS_" ^ name) imports
    are bound to these entries when it is linked. *)
let syscalls : syscall list =
  [
    (* ---- plain I/O ---- *)
    sys "read" 3 read;
    sys "write" 3 ~loc:5 write;
    sys "pread64" 4 (fun p m a ->
        let b, off = buf m a 1 (ai a 2) in
        enc_int
          (Syscalls.pread64 (ctx p) ~fd:(ai a 0) ~buf:b ~off ~len:(ai a 2) ~pos:(ai a 3)));
    sys "pwrite64" 4 (fun p m a ->
        let b, off = buf m a 1 (ai a 2) in
        enc_int
          (Syscalls.pwrite64 (ctx p) ~fd:(ai a 0) ~buf:b ~off ~len:(ai a 2) ~pos:(ai a 3)));
    sys "readv" 3 ~loc:9 (vectored Syscalls.read ~stop_at_eof:true);
    sys "writev" 3 ~loc:10 (vectored Syscalls.write ~stop_at_eof:false);
    sys "open" 3 (fun p m a -> openat p m a ~dirfd:at_cwd ~path:0 ~flags:1);
    sys "openat" 4 (fun p m a -> openat p m a ~dirfd:(ai a 0) ~path:1 ~flags:2);
    sys "close" 1 ~loc:3 (fun p _ a -> enc_unit (Syscalls.close (ctx p) ~fd:(ai a 0)));
    sys "lseek" 3 ~loc:3 (fun p _ a ->
        enc_int (Syscalls.lseek (ctx p) ~fd:(ai a 0) ~offset:(ai a 1) ~whence:(ai a 2)));
    sys "ftruncate" 2 ~loc:3 (fun p _ a ->
        enc_unit (Syscalls.ftruncate (ctx p) ~fd:(ai a 0) ~len:(ai a 1)));
    sys "truncate" 2 ~loc:5 (fun p m a ->
        let c = ctx p in
        match Vfs.resolve c.Syscalls.k.Task.fs ~cwd:c.Syscalls.t.Task.cwd (str m a 0) with
        | Ok { Vfs.kind = Vfs.Reg b; _ } ->
            Bytebuf.truncate b (ai a 1);
            0L
        | Ok _ -> errno_ret Errno.EINVAL
        | Error e -> errno_ret e);
    sys "fsync" 1 ~loc:2 (fun p _ a -> enc_unit (Syscalls.fsync (ctx p) ~fd:(ai a 0)));
    sys "fdatasync" 1 ~loc:2 (fun p _ a -> enc_unit (Syscalls.fsync (ctx p) ~fd:(ai a 0)));
    sys "sync" 0 ~loc:1 zero;
    sys "sendfile" 4 ~loc:10 sendfile;
    (* ---- stat family: explicit layout conversion (§3.5) ---- *)
    sys "stat" 2 ~loc:8 (stat ~follow:true);
    sys "lstat" 2 ~loc:6 (stat ~follow:false);
    sys "newfstatat" 4 ~loc:8 (fun p m a ->
        (* flags bit 0x100 = AT_SYMLINK_NOFOLLOW *)
        let follow = ai a 3 land 0x100 = 0 in
        let* st = Syscalls.stat_path (ctx p) ~dirfd:(ai a 0) ~path:(str m a 1) ~follow in
        Abi.write_kstat (Rt.memory0 m) (ap a 2) st;
        0L);
    sys "fstat" 2 (fun p m a ->
        let* st = Syscalls.fstat (ctx p) ~fd:(ai a 0) in
        Abi.write_kstat (Rt.memory0 m) (ap a 1) st;
        0L);
    sys "statfs" 2 ~loc:6 statfs;
    sys "fstatfs" 2 ~loc:6 statfs;
    sys "access" 2 ~loc:8 (faccessat ~dirfd:at_cwd ~path:0);
    sys "faccessat" 3 ~loc:8 (fun p m a -> faccessat ~dirfd:(ai a 0) ~path:1 p m a);
    (* ---- directories and links ---- *)
    sys "mkdir" 2 ~loc:4 (fun p m a ->
        enc_unit (Syscalls.mkdirat (ctx p) ~dirfd:at_cwd ~path:(str m a 0) ~mode:(ai a 1)));
    sys "mkdirat" 3 ~loc:4 (fun p m a ->
        enc_unit (Syscalls.mkdirat (ctx p) ~dirfd:(ai a 0) ~path:(str m a 1) ~mode:(ai a 2)));
    sys "rmdir" 1 ~loc:4 (fun p m a ->
        enc_unit (Syscalls.unlinkat (ctx p) ~dirfd:at_cwd ~path:(str m a 0) ~rmdir_flag:true));
    sys "unlink" 1 ~loc:4 (fun p m a ->
        enc_unit (Syscalls.unlinkat (ctx p) ~dirfd:at_cwd ~path:(str m a 0) ~rmdir_flag:false));
    sys "unlinkat" 3 ~loc:4 (fun p m a ->
        (* AT_REMOVEDIR = 0x200 *)
        enc_unit
          (Syscalls.unlinkat (ctx p) ~dirfd:(ai a 0) ~path:(str m a 1)
             ~rmdir_flag:(ai a 2 land 0x200 <> 0)));
    sys "link" 2 ~loc:5 (fun p m a ->
        enc_unit
          (Syscalls.linkat (ctx p) ~olddirfd:at_cwd ~oldpath:(str m a 0)
             ~newdirfd:at_cwd ~newpath:(str m a 1)));
    sys "linkat" 5 ~loc:5 (fun p m a ->
        enc_unit
          (Syscalls.linkat (ctx p) ~olddirfd:(ai a 0) ~oldpath:(str m a 1)
             ~newdirfd:(ai a 2) ~newpath:(str m a 3)));
    sys "symlink" 2 ~loc:4 (fun p m a ->
        enc_unit
          (Syscalls.symlinkat (ctx p) ~target:(str m a 0) ~dirfd:at_cwd ~path:(str m a 1)));
    sys "symlinkat" 3 ~loc:4 (fun p m a ->
        enc_unit
          (Syscalls.symlinkat (ctx p) ~target:(str m a 0) ~dirfd:(ai a 1) ~path:(str m a 2)));
    sys "readlink" 3 ~loc:6 (readlinkat ~dirfd:at_cwd ~path:0);
    sys "readlinkat" 4 ~loc:6 (fun p m a -> readlinkat ~dirfd:(ai a 0) ~path:1 p m a);
    sys "rename" 2 ~loc:5 (fun p m a ->
        enc_unit
          (Syscalls.renameat (ctx p) ~olddirfd:at_cwd ~oldpath:(str m a 0)
             ~newdirfd:at_cwd ~newpath:(str m a 1)));
    sys "renameat" 4 ~loc:5 renameat;
    sys "renameat2" 5 ~loc:5 renameat;
    sys "chdir" 1 ~loc:3 (fun p m a -> enc_unit (Syscalls.chdir (ctx p) ~path:(str m a 0)));
    sys "fchdir" 1 ~loc:3 (fun p _ a -> enc_unit (Syscalls.fchdir (ctx p) ~fd:(ai a 0)));
    sys "getcwd" 2 ~loc:5 (fun p m a ->
        let* cwd = Syscalls.getcwd (ctx p) in
        if String.length cwd + 1 > ai a 1 then errno_ret Errno.ERANGE
        else begin
          Abi.write_cstring (Rt.memory0 m) (ap a 0) cwd;
          Int64.of_int (String.length cwd + 1)
        end);
    sys "chmod" 2 ~loc:4 (fun p m a ->
        enc_unit (Syscalls.fchmodat (ctx p) ~dirfd:at_cwd ~path:(str m a 0) ~mode:(ai a 1)));
    sys "fchmodat" 3 ~loc:4 (fun p m a ->
        enc_unit (Syscalls.fchmodat (ctx p) ~dirfd:(ai a 0) ~path:(str m a 1) ~mode:(ai a 2)));
    (* metadata-only on an open fd; accepted *)
    sys "fchmod" 2 ~loc:4 zero;
    sys "chown" 3 ~loc:4 chown;
    sys "lchown" 3 ~loc:4 chown;
    sys "fchownat" 5 ~loc:4 (fun p m a ->
        enc_unit
          (Syscalls.fchownat (ctx p) ~dirfd:(ai a 0) ~path:(str m a 1) ~uid:(ai a 2)
             ~gid:(ai a 3)));
    sys "fchown" 3 ~loc:4 zero;
    sys "getdents64" 3 ~loc:14 (fun p m a ->
        let c = ctx p and fd = ai a 0 and len = ai a 2 in
        let* entries = Syscalls.getdents c ~fd ~max:(max 1 (len / 24)) in
        let written, consumed =
          Abi.write_dirents (Rt.memory0 m) ~buf:(ap a 1) ~len entries
        in
        (* push back entries that did not fit *)
        (match Fdtab.get c.Syscalls.t.Task.fdtab fd with
        | Some d ->
            d.Fdtab.d_dir_cookie <-
              d.Fdtab.d_dir_cookie - (List.length entries - consumed)
        | None -> ());
        Int64.of_int written);
    sys "utimensat" 4 ~loc:6 (fun p m a ->
        let c = ctx p and mem = Rt.memory0 m and times = ap a 2 in
        let now = Task.clock_gettime c.Syscalls.k Ktypes.clock_realtime in
        let at, mt =
          if times = 0 then (now, now)
          else (Abi.read_timespec_ns mem times, Abi.read_timespec_ns mem (times + 16))
        in
        enc_unit
          (Syscalls.utimensat c ~dirfd:(ai a 0) ~path:(str m a 1) ~atime_ns:at ~mtime_ns:mt));
    (* ---- dup / fcntl / ioctl / pipes ---- *)
    sys "dup" 1 ~loc:3 (fun p _ a -> enc_int (Syscalls.dup (ctx p) ~fd:(ai a 0)));
    sys "dup2" 2 ~loc:4 (fun p _ a ->
        enc_int (Syscalls.dup3 (ctx p) ~fd:(ai a 0) ~newfd:(ai a 1) ~cloexec:false));
    sys "dup3" 3 ~loc:4 (fun p _ a ->
        enc_int
          (Syscalls.dup3 (ctx p) ~fd:(ai a 0) ~newfd:(ai a 1)
             ~cloexec:(ai a 2 land Ktypes.o_cloexec <> 0)));
    sys "fcntl" 3 ~loc:10 (fun p _ a ->
        enc_int (Syscalls.fcntl (ctx p) ~fd:(ai a 0) ~cmd:(ai a 1) ~arg:(ai a 2)));
    sys "flock" 2 ~loc:2 zero;
    sys "ioctl" 3 (fun p m a ->
        let req = ai a 1 and out = ap a 2 and mem = Rt.memory0 m in
        let* r = Syscalls.ioctl (ctx p) ~fd:(ai a 0) ~request:req in
        if req = Ktypes.tiocgwinsz && out <> 0 then begin
          (* struct winsize { u16 rows, cols, xpix, ypix } *)
          Abi.set_u16 mem out 24;
          Abi.set_u16 mem (out + 2) 80;
          Abi.set_u16 mem (out + 4) 0;
          Abi.set_u16 mem (out + 6) 0
        end
        else if req = Ktypes.fionread && out <> 0 then Abi.set_i32i mem out r;
        0L);
    sys "pipe" 1 ~loc:6 (pipe2 ~flags:0);
    sys "pipe2" 2 ~loc:6 (fun p m a -> pipe2 ~flags:(ai a 1) p m a);
    (* ---- poll / select ---- *)
    sys "poll" 3 ~loc:12 (ppoll ~timeout:(fun _ a -> ai a 2));
    sys "ppoll" 4 ~loc:12 (ppoll ~timeout:(fun mem a -> timeout_ms mem (ap a 2)));
    sys "select" 5 ~loc:14 select;
    sys "pselect6" 6 ~loc:14 select;
    (* ---- memory management (§3.2) ---- *)
    sys "mmap" 6 ~loc:30 ~stateful:true mmap;
    sys "munmap" 2 ~loc:12 ~stateful:true (fun p m a ->
        let* () =
          Mmap_mgr.munmap (shared p).Engine.ps_mmap ~mem:(Rt.memory0 m) ~addr:(ap a 0)
            ~len:(ai a 1)
        in
        Task.charge_vm (ctx p).Syscalls.t (-Mmap_mgr.align_up (ai a 1));
        0L);
    sys "mremap" 5 ~loc:18 ~stateful:true (fun p m a ->
        let* addr =
          Mmap_mgr.mremap (shared p).Engine.ps_mmap ~mem:(Rt.memory0 m)
            ~old_addr:(ap a 0) ~old_len:(ai a 1) ~new_len:(ai a 2)
        in
        Task.charge_vm (ctx p).Syscalls.t
          (Mmap_mgr.align_up (ai a 2) - Mmap_mgr.align_up (ai a 1));
        Int64.of_int addr);
    sys "mprotect" 3 (fun p _ a ->
        enc_unit
          (Mmap_mgr.mprotect (shared p).Engine.ps_mmap ~addr:(ap a 0) ~len:(ai a 1)
             ~prot:(ai a 2)));
    sys "msync" 3 ~loc:6 ~stateful:true (fun p m a ->
        enc_unit
          (Mmap_mgr.msync (shared p).Engine.ps_mmap ~mem:(Rt.memory0 m) ~addr:(ap a 0)
             ~len:(ai a 1)));
    sys "madvise" 3 ~loc:2 zero;
    sys "mincore" 3 ~loc:2 zero;
    sys "fadvise64" 4 ~loc:1 zero;
    sys "membarrier" 2 ~loc:1 zero;
    sys "brk" 1 ~loc:3 ~stateful:true brk;
    (* ---- signals (§3.3) ---- *)
    sys "rt_sigaction" 4 ~loc:40 ~stateful:true (fun p m a ->
        let mem = Rt.memory0 m in
        let action = if ap a 1 = 0 then None else Some (Abi.read_sigaction mem (ap a 1)) in
        let* old = Syscalls.rt_sigaction (ctx p) ~signo:(ai a 0) ~action in
        if ap a 2 <> 0 then Abi.write_sigaction mem (ap a 2) old;
        0L);
    sys "rt_sigprocmask" 4 ~loc:5 (fun p m a ->
        let mem = Rt.memory0 m in
        let set = if ap a 1 = 0 then None else Some (Abi.i64 mem (ap a 1)) in
        let* old = Syscalls.rt_sigprocmask (ctx p) ~how:(ai a 0) ~set in
        if ap a 2 <> 0 then Abi.set_i64 mem (ap a 2) old;
        (* §3.3: handle signals unblocked by this call before re-entering
           the Wasm critical section. *)
        poll m;
        0L);
    sys "rt_sigpending" 2 ~loc:4 (fun p m a ->
        let* pend = Syscalls.rt_sigpending (ctx p) in
        Abi.set_i64 (Rt.memory0 m) (ap a 0) pend;
        0L);
    sys "rt_sigsuspend" 2 ~loc:8 (fun p m a ->
        let c = ctx p in
        let nmask = Abi.i64 (Rt.memory0 m) (ap a 0) in
        let* old = Syscalls.rt_sigprocmask c ~how:Ktypes.sig_setmask ~set:(Some nmask) in
        let r = Syscalls.pause c in
        poll m;
        let _ = Syscalls.rt_sigprocmask c ~how:Ktypes.sig_setmask ~set:(Some old) in
        enc_unit r);
    (* §3.6: the signal trampoline is engine-managed; direct calls are a
       known attack gadget and trap. *)
    sys "rt_sigreturn" 0 ~loc:2 (fun _ _ _ ->
        Values.trap "rt_sigreturn invoked directly from WALI module");
    sys "sigaltstack" 2 ~loc:2 zero;
    sys "kill" 2 ~loc:3 (fun p _ a ->
        enc_unit (Syscalls.kill (ctx p) ~pid:(ai a 0) ~signo:(ai a 1)));
    sys "tkill" 2 ~loc:3 (fun p _ a ->
        enc_unit (Syscalls.tkill (ctx p) ~tid:(ai a 0) ~signo:(ai a 1)));
    sys "tgkill" 3 ~loc:3 (fun p _ a ->
        enc_unit (Syscalls.tkill (ctx p) ~tid:(ai a 1) ~signo:(ai a 2)));
    sys "pause" 0 ~loc:3 (fun p _ _ -> enc_unit (Syscalls.pause (ctx p)));
    sys "alarm" 1 ~loc:4 (fun p _ a -> enc_int (Syscalls.alarm (ctx p) ~seconds:(ai a 0)));
    sys "setitimer" 3 ~loc:8 (fun p m a ->
        (* ITIMER_REAL via the alarm machinery; interval ignored *)
        let ns =
          if ap a 1 = 0 then 0L else Abi.read_timespec_ns (Rt.memory0 m) (ap a 1 + 16)
        in
        let secs = Int64.to_int (Int64.div (Int64.add ns 999_999_999L) 1_000_000_000L) in
        enc_int (Syscalls.alarm (ctx p) ~seconds:secs));
    sys "getitimer" 2 ~loc:4 (fun _ m a ->
        Abi.write_timespec (Rt.memory0 m) (ap a 1) ~ns:0L;
        Abi.write_timespec (Rt.memory0 m) (ap a 1 + 16) ~ns:0L;
        0L);
    (* ---- processes (§3.1) ---- *)
    op "fork" 0 ~loc:1 ~stateful:true fork;
    op "vfork" 0 ~loc:1 ~stateful:true fork;
    op "clone" 5 ~loc:100 ~stateful:true (fun eng p m a ->
        (* Thread creation goes through the dedicated spawn method the
           libc uses (instance-per-thread); raw CLONE_VM is refused. *)
        if ai a 0 land Ktypes.clone_vm <> 0 then
          Rt.H_return [ Values.I64 (errno_ret Errno.EINVAL) ]
        else fork eng p m a);
    op "execve" 3 ~loc:25 ~stateful:true (fun eng p m a ->
        do_execve eng p (Rt.memory0 m) ~path_ptr:(ap a 0) ~argv_ptr:(ap a 1)
          ~envp_ptr:(ap a 2));
    op "exit" 1 ~loc:2 ~stateful:false exit_op;
    op "exit_group" 1 ~loc:3 ~stateful:false exit_op;
    sys "wait4" 4 ~loc:12 wait4;
    sys "waitid" 5 ~loc:12 wait4;
    sys "getpid" 0 ~loc:1 (fun p _ _ -> Int64.of_int (Syscalls.getpid (ctx p)));
    sys "getppid" 0 ~loc:1 (fun p _ _ -> Int64.of_int (Syscalls.getppid (ctx p)));
    sys "gettid" 0 ~loc:1 (fun p _ _ -> Int64.of_int (Syscalls.gettid (ctx p)));
    sys "getuid" 0 ~loc:1 (fun p _ _ -> Int64.of_int (Syscalls.getuid (ctx p)));
    sys "geteuid" 0 ~loc:1 (fun p _ _ -> Int64.of_int (Syscalls.geteuid (ctx p)));
    sys "getgid" 0 ~loc:1 (fun p _ _ -> Int64.of_int (Syscalls.getgid (ctx p)));
    sys "getegid" 0 ~loc:1 (fun p _ _ -> Int64.of_int (Syscalls.getegid (ctx p)));
    sys "setuid" 1 ~loc:2 (fun p _ a -> enc_unit (Syscalls.setuid (ctx p) ~uid:(ai a 0)));
    sys "setgid" 1 ~loc:2 (fun p _ a -> enc_unit (Syscalls.setgid (ctx p) ~gid:(ai a 0)));
    sys "getgroups" 2 ~loc:2 zero;
    sys "setpgid" 2 ~loc:3 (fun p _ a ->
        enc_unit (Syscalls.setpgid (ctx p) ~pid:(ai a 0) ~pgid:(ai a 1)));
    sys "getpgid" 1 ~loc:3 (fun p _ a -> enc_int (Syscalls.getpgid (ctx p) ~pid:(ai a 0)));
    sys "getpgrp" 0 ~loc:2 (fun p _ _ -> enc_int (Syscalls.getpgid (ctx p) ~pid:0));
    sys "setsid" 0 ~loc:3 (fun p _ _ -> enc_int (Syscalls.setsid (ctx p)));
    sys "getsid" 1 ~loc:2 (fun p _ _ -> Int64.of_int (ctx p).Syscalls.t.Task.sid);
    sys "sched_yield" 0 ~loc:2 (fun p _ _ ->
        Syscalls.sched_yield (ctx p);
        0L);
    sys "sched_getaffinity" 3 ~loc:4 (fun _ m a ->
        if ai a 1 >= 8 then begin
          Abi.set_i64 (Rt.memory0 m) (ap a 2) 1L;
          8L
        end
        else errno_ret Errno.EINVAL);
    sys "sched_setaffinity" 3 ~loc:2 zero;
    sys "prctl" 5 ~loc:4 zero;
    sys "set_robust_list" 2 ~loc:2 zero;
    sys "set_tid_address" 1 ~loc:2 (fun p _ _ -> Int64.of_int (ctx p).Syscalls.t.Task.tid);
    sys "getrlimit" 2 ~loc:5 (prlimit64 ~resource:0 ~out:1);
    sys "prlimit64" 4 ~loc:5 (prlimit64 ~resource:1 ~out:3);
    sys "setrlimit" 2 ~loc:2 zero;
    sys "getrusage" 2 ~loc:5 (fun p m a ->
        let* ut, st, maxrss = Syscalls.getrusage (ctx p) ~who:(ai a 0) in
        let mem = Rt.memory0 m and b = ap a 1 in
        Abi.write_timeval mem b ~ns:ut;
        Abi.write_timeval mem (b + 16) ~ns:st;
        Abi.set_i64 mem (b + 32) (Int64.of_int maxrss);
        0L);
    sys "times" 1 ~loc:4 (fun p m a ->
        let t = (ctx p).Syscalls.t and mem = Rt.memory0 m and b = ap a 0 in
        if b <> 0 then begin
          Abi.set_i64 mem b (Int64.div t.Task.utime 10_000_000L);
          Abi.set_i64 mem (b + 8) (Int64.div t.Task.stime 10_000_000L);
          Abi.set_i64 mem (b + 16) 0L;
          Abi.set_i64 mem (b + 24) 0L
        end;
        Int64.div (Fiber.now ()) 10_000_000L);
    sys "sysinfo" 1 ~loc:6 (fun p m a ->
        let uptime, procs = Syscalls.sysinfo (ctx p) in
        let mem = Rt.memory0 m and b = ap a 0 in
        Abi.set_i64 mem b (Int64.div uptime 1_000_000_000L);
        Abi.set_i64 mem (b + 8) 8_589_934_592L;
        Abi.set_i64 mem (b + 16) 4_294_967_296L;
        Abi.set_i32i mem (b + 24) procs;
        0L);
    sys "uname" 1 ~loc:8 (fun p m a ->
        let sysname, nodename, release, version, machine, domain =
          Syscalls.uname (ctx p)
        in
        List.iteri
          (fun i s -> Abi.write_cstring (Rt.memory0 m) (ap a 0 + (i * 65)) ~max:65 s)
          [ sysname; nodename; release; version; machine; domain ];
        0L);
    sys "umask" 1 ~loc:2 (fun p _ a -> Int64.of_int (Syscalls.umask (ctx p) ~mask:(ai a 0)));
    (* ---- time ---- *)
    sys "nanosleep" 2 ~loc:6 (nanosleep ~req:0);
    sys "clock_nanosleep" 4 ~loc:6 (nanosleep ~req:2);
    sys "clock_gettime" 2 ~loc:4 (fun p m a ->
        Abi.write_timespec (Rt.memory0 m) (ap a 1)
          ~ns:(Syscalls.clock_gettime (ctx p) ~clock:(ai a 0));
        0L);
    sys "clock_getres" 2 ~loc:3 (fun _ m a ->
        if ap a 1 <> 0 then Abi.write_timespec (Rt.memory0 m) (ap a 1) ~ns:1L;
        0L);
    sys "gettimeofday" 2 ~loc:5 (fun p m a ->
        Abi.write_timeval (Rt.memory0 m) (ap a 0)
          ~ns:(Syscalls.clock_gettime (ctx p) ~clock:Ktypes.clock_realtime);
        0L);
    sys "time" 1 ~loc:2 (fun p m a ->
        let secs =
          Int64.div (Syscalls.clock_gettime (ctx p) ~clock:Ktypes.clock_realtime)
            1_000_000_000L
        in
        if ap a 0 <> 0 then Abi.set_i64 (Rt.memory0 m) (ap a 0) secs;
        secs);
    (* ---- sockets ---- *)
    sys "socket" 3 ~loc:5 (fun p _ a ->
        enc_int (Syscalls.socket (ctx p) ~family:(ai a 0) ~stype:(ai a 1)));
    sys "bind" 3 ~loc:7 (sockaddr_then Syscalls.bind);
    sys "connect" 3 ~loc:8 (sockaddr_then Syscalls.connect);
    sys "listen" 2 ~loc:3 (fun p _ a ->
        enc_unit (Syscalls.listen (ctx p) ~fd:(ai a 0) ~backlog:(ai a 1)));
    sys "accept" 3 ~loc:7 accept;
    sys "accept4" 4 ~loc:7 accept;
    sys "sendto" 6 ~loc:8 write;
    sys "recvfrom" 6 ~loc:8 read;
    sys "shutdown" 2 ~loc:3 (fun p _ a ->
        enc_unit (Syscalls.shutdown (ctx p) ~fd:(ai a 0) ~how:(ai a 1)));
    sys "socketpair" 4 ~loc:7 (fun p m a ->
        let* r, w = Syscalls.socketpair (ctx p) ~family:(ai a 0) in
        let mem = Rt.memory0 m in
        Abi.set_i32i mem (ap a 3) r;
        Abi.set_i32i mem (ap a 3 + 4) w;
        0L);
    sys "setsockopt" 5 ~loc:5 (fun p m a ->
        let v =
          if ap a 3 <> 0 && ai a 4 >= 4 then Int32.to_int (Abi.i32 (Rt.memory0 m) (ap a 3))
          else 0
        in
        enc_unit
          (Syscalls.setsockopt (ctx p) ~fd:(ai a 0) ~level:(ai a 1) ~opt:(ai a 2) ~value:v));
    sys "getsockopt" 5 ~loc:6 (fun p m a ->
        let* v = Syscalls.getsockopt (ctx p) ~fd:(ai a 0) ~level:(ai a 1) ~opt:(ai a 2) in
        let mem = Rt.memory0 m in
        if ap a 3 <> 0 then Abi.set_i32i mem (ap a 3) v;
        if ap a 4 <> 0 then Abi.set_i32i mem (ap a 4) 4;
        0L);
    sys "getsockname" 3 ~loc:6 sockname;
    sys "getpeername" 3 ~loc:6 sockname;
    (* ---- futex / misc ---- *)
    sys "futex" 6 ~loc:6 futex;
    sys "getrandom" 3 ~loc:5 (fun p m a ->
        let b, off = buf m a 0 (ai a 1) in
        enc_int (Syscalls.getrandom (ctx p) ~buf:b ~off ~len:(ai a 1)));
  ]

(* The remaining Linux API: auto-generated passthrough stubs that return
   -ENOSYS, matching the paper's claim that >85% of the surface is
   mechanically generatable (§5/§6). *)
let enosys = Ret (fun _ _ _ -> errno_ret Errno.ENOSYS)

let table : (string, syscall) Hashtbl.t =
  let t = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace t e.name e) syscalls;
  List.iter
    (fun (l : Tables.Linux_tables.entry) ->
      let name = l.Tables.Linux_tables.name in
      if not (Hashtbl.mem t name) then
        Hashtbl.replace t name
          { name; arity = 6; loc = 1; stateful = false; implemented = false;
            handler = enosys })
    Tables.Linux_tables.all;
  t

(** The entry bound to [("wali", "SYS_" ^ name)]: an implemented call or
    an ENOSYS stub; [None] fails at link time. *)
let find name = Hashtbl.find_opt table name

let implemented_count = List.length syscalls
let total_count = Hashtbl.length table

(* Run one entry's handler. A failed pointer translation is -EFAULT, as
   in the raw kernel ABI. *)
let call (e : syscall) eng p m args : Rt.host_outcome =
  try
    match e.handler with
    | Ret f -> Rt.H_return [ Values.I64 (f p m args) ]
    | Op f -> f eng p m args
  with Abi.Efault | Rt.Memory.Bounds ->
    Rt.H_return [ Values.I64 (errno_ret Errno.EFAULT) ]

(* Linux delivers pending signals on return to userspace from any
   syscall: run the machine's poll hook before handing a result back
   (complements the safepoints of §3.3). *)
let poll_on_return (m : Rt.machine) (outcome : Rt.host_outcome) =
  match (outcome, m.Rt.poll_hook) with
  | Rt.H_return _, Some f -> f m
  | _ -> ()

(** Serve one syscall by name for machine [m] with no seccomp check,
    tracing or interposition (the native and RV32 backends call this
    directly); pending signals are delivered on return, as on every
    crossing. *)
let dispatch eng name m args : Rt.host_outcome =
  let outcome =
    match find name with
    | Some e -> call e eng (Engine.proc_of eng m) m args
    | None -> Rt.H_return [ Values.I64 (errno_ret Errno.ENOSYS) ]
  in
  poll_on_return m outcome;
  outcome

(* ------------------------------------------------------------------ *)
(* Host function construction / resolver                                *)
(* ------------------------------------------------------------------ *)

let traced_dispatch eng (e : syscall) (m : Rt.machine) (args : Values.value array) :
    Rt.host_outcome =
  let name = e.name in
  let p = Engine.proc_of eng m in
  (* The live path: seccomp decision + kernel dispatch. An interposer
     (record/replay) wraps this thunk — the recorder runs it and logs the
     outcome, the replayer substitutes the logged outcome for it. *)
  let live () =
    match Seccomp.check eng.Engine.policy name with
    | Seccomp.Allow -> call e eng p m args
    | Seccomp.Deny err -> Rt.H_return [ Values.I64 (errno_ret err) ]
    | Seccomp.Kill ->
        raise (Engine.Killed_by (Ktypes.wsignal_status Ktypes.sigsys))
  in
  let pid = p.Engine.pr_task.Task.tgid and tid = p.Engine.pr_task.Task.tid in
  let t0 = Fiber.now () in
  (match eng.Engine.observe with
  | Some o -> Observe.Sink.syscall_begin o ~pid ~tid ~name ~ts:t0
  | None -> ());
  let outcome = Engine.interposed eng p name m args live in
  let t1 = Fiber.now () in
  let ns = Int64.sub t1 t0 in
  let result =
    match outcome with Rt.H_return [ Values.I64 r ] -> r | _ -> 0L
  in
  (* the one aggregation of this crossing; a sink reads the same registry *)
  Strace.note eng.Engine.trace ~pid ~name ~args ~result ~ns;
  (match eng.Engine.observe with
  | Some o ->
      Observe.Sink.syscall_end o ~pid ~tid ~name ~ts:t1 ~ns ~result
        ~stack:(fun () -> Engine.machine_stack m)
  | None -> ());
  (* polling after the span closes keeps the trace well-nested even when
     a delivery terminates the process *)
  poll_on_return m outcome;
  outcome

let i64s n = List.init n (fun _ -> Types.T_i64)

let syscall_host_func eng (e : syscall) : Rt.func_inst =
  Rt.Host_func
    {
      hf_name = import_name e.name;
      hf_type = { Types.params = i64s e.arity; results = [ Types.T_i64 ] };
      hf_fn = (fun m args -> traced_dispatch eng e m args);
    }

(** The argv/env support methods (§3.4) for every backend: the Wasm
    imports, the native [h_builtin] and the RV32 builtin ecalls all land
    here. Ownership of the vectors stays in the application sandbox; the
    engine only answers sizes and copies one element at a time. [name] is
    one of {!env_methods} and [a] its arguments. A bad index or an
    unwritable buffer answers -1. *)
let env_method (p : Engine.proc) mem name (a : int array) : int =
  let sh = p.Engine.pr_shared in
  let vec =
    match name with
    | "get_envc" | "get_env_len" | "copy_env" -> sh.Engine.ps_env
    | _ -> sh.Engine.ps_argv
  in
  let valid i = i >= 0 && i < Array.length vec in
  match name with
  | "get_argc" | "get_envc" -> Array.length vec
  | "get_argv_len" | "get_env_len" ->
      if valid a.(0) then String.length vec.(a.(0)) + 1 else -1
  | "copy_argv" | "copy_env" -> (
      let i = a.(1) in
      if not (valid i) then -1
      else
        match Abi.write_cstring mem a.(0) vec.(i) with
        | () -> String.length vec.(i) + 1
        | exception Abi.Efault -> -1)
  | _ -> -1

let env_host_func eng (name : string) (arity : int) : Rt.func_inst =
  Rt.Host_func
    {
      hf_name = name;
      hf_type =
        { Types.params = List.init arity (fun _ -> Types.T_i32);
          results = [ Types.T_i32 ] };
      hf_fn =
        (fun m args ->
          let a = Array.map (fun v -> Int32.to_int (Values.as_i32 v)) args in
          let r = env_method (Engine.proc_of eng m) (Rt.memory0 m) name a in
          Rt.H_return [ Values.I32 (Int32.of_int r) ]);
    }

let thread_spawn_host_func eng : Rt.func_inst =
  Rt.Host_func
    {
      hf_name = "thread_spawn";
      hf_type = { Types.params = [ Types.T_i32; Types.T_i32 ]; results = [ Types.T_i32 ] };
      hf_fn =
        (fun m args ->
          let p = Engine.proc_of eng m in
          (* thread_spawn creates engine structure (a fiber and a
             machine), so like fork it must be interposable: replay
             re-executes it live and validates the resulting tid. *)
          let live () =
            let tid =
              do_thread_spawn eng p m
                ~entry_idx:(Int32.to_int (Values.as_i32 args.(0)))
                ~arg:(Int32.to_int (Values.as_i32 args.(1)))
            in
            Rt.H_return [ Values.I32 (Int64.to_int32 tid) ]
          in
          Engine.interposed eng p "thread_spawn" m args live);
    }

(** The engine's import resolver for the ["wali"] namespace. *)
let resolver (eng : Engine.t) : Link.resolver =
 fun ~module_name ~name ->
  if module_name <> import_module then None
  else if name = "thread_spawn" then Some (Rt.E_func (thread_spawn_host_func eng))
  else
    match List.assoc_opt name env_methods with
    | Some arity -> Some (Rt.E_func (env_host_func eng name arity))
    | None ->
        if String.starts_with ~prefix:"SYS_" name then
          find (String.sub name 4 (String.length name - 4))
          |> Option.map (fun e -> Rt.E_func (syscall_host_func eng e))
        else None

let () = resolver_ref := fun eng ~module_name ~name -> resolver eng ~module_name ~name

(* ------------------------------------------------------------------ *)
(* Program spawning                                                     *)
(* ------------------------------------------------------------------ *)

(** Launch a Wasm binary as the initial WALI process (with stdio on the
    console). Returns the process; its result is available once the
    scheduler drains. A module without a [_start] export traps inside
    the process (SIGILL status) rather than escaping the scheduler. *)
let spawn_init (eng : Engine.t) ~(binary : string) ~(argv : string list)
    ~(env : string list) : Engine.proc =
  let name = match argv with a :: _ -> Filename.basename a | [] -> "wali-app" in
  let inst = Engine.build_image eng ~resolver:(resolver eng) ~binary ~name in
  let task = Task.make_init eng.Engine.kernel ~comm:name in
  Engine.setup_stdio eng task;
  let m = Engine.new_machine eng inst ~tid:task.Task.tid in
  let p =
    Engine.add_proc eng task
      ~shared:(Engine.make_pshared eng ~inst ~argv ~env ~binary)
      ~machine:m
  in
  let entry =
    match Rt.export_opt inst "_start" with
    | Some (Rt.E_func f) -> Some f
    | _ -> None
  in
  ignore
    (Fiber.spawn name (fun () ->
         Engine.run_machine_body eng p m ~fresh_entry:true ~entry ~args:[]));
  p

(** Run a Wasm binary as the initial process of [eng] until the scheduler
    drains, with the engine's sink attached for the run. An exit hook the
    caller installed on [eng] keeps seeing every process exit. Returns
    the initial process's packed wait status and result. *)
let run (eng : Engine.t) ~(binary : string) ~(argv : string list)
    ~(env : string list) : int * Interp.run_result option =
  let status = ref 0 in
  let result = ref None in
  let chained = eng.Engine.on_proc_exit in
  Option.iter Observe.Sink.attach eng.Engine.observe;
  Fun.protect
    ~finally:(fun () -> Option.iter Observe.Sink.detach eng.Engine.observe)
    (fun () ->
      Fiber.run (fun () ->
          let p = spawn_init eng ~binary ~argv ~env in
          eng.Engine.on_proc_exit <-
            Some
              (fun q st ->
                Option.iter (fun f -> f q st) chained;
                if q == p then begin
                  status := st;
                  result := q.Engine.pr_result
                end)));
  (!status, !result)

(** One-call convenience: boot a kernel (unless given one), create an
    engine over it and {!run} [binary] to completion; returns
    (exit_status, console output, result). Used by tests, examples and
    benches. *)
let run_program ?(kernel : Task.kernel option) ?(poll_scheme = Code.Poll_loops)
    ?(fuse = true) ?(trace : Strace.t option) ?(policy : Seccomp.t option)
    ?(observe : Observe.Sink.t option) ~(binary : string)
    ~(argv : string list) ~(env : string list) () :
    int * string * Interp.run_result option =
  let kernel = match kernel with Some k -> k | None -> Task.boot () in
  let eng = Engine.create ~poll_scheme ~fuse ?trace ?policy ?observe kernel in
  let status, result = run eng ~binary ~argv ~env in
  (status, Task.console_output kernel, result)
