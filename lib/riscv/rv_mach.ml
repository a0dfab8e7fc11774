(** RV32IM user-mode machine: fetch/decode/execute from raw memory on
    every step, qemu-user style (no pre-decoding, no translation cache —
    the pure interpretive cost model of ISA virtualization).

    Memory is a {!Wasm.Rt.Memory.t} so the syscall marshalling layer can
    be shared with the other engines. Registers are OCaml ints holding
    sign-extended 32-bit values. A guest fault raises {!Wasm.Values.Trap},
    so it ends the process the way a Wasm trap does. *)

type t = {
  regs : int array; (* x0..x31 *)
  mutable pc : int;
  mem : Wasm.Rt.Memory.t;
  mutable halted : bool;
}

let trap = Wasm.Values.trap

(* Returning to this address ends a [run]: it lies outside guest memory
   and is even, so no other control transfer reaches it. *)
let return_pc = -4

let wrap v = (v land 0xFFFFFFFF) - (if v land 0x80000000 <> 0 then 0x100000000 else 0)
let to_u v = v land 0xFFFFFFFF

let create ~(mem : Wasm.Rt.Memory.t) ~(entry : int) ~(sp_init : int) : t =
  let m = { regs = Array.make 32 0; pc = entry; mem; halted = false } in
  m.regs.(Rv_asm.sp) <- sp_init;
  m.regs.(Rv_asm.ra) <- return_pc;
  m

let get m r = if r = 0 then 0 else m.regs.(r)
let set m r v = if r <> 0 then m.regs.(r) <- wrap v

let sign_extend v bits =
  (* OCaml native ints are 63-bit; shift against the actual width *)
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(** One instruction. On ECALL, calls [ecall m] which reads/writes the
    argument registers itself. *)
let step (m : t) ~(ecall : t -> unit) : unit =
  let w =
    try Int32.to_int (Wasm.Rt.Memory.load32 m.mem m.pc) land 0xFFFFFFFF
    with Wasm.Rt.Memory.Bounds -> trap "instruction fetch fault at 0x%x" m.pc
  in
  let opcode = w land 0x7f in
  let rd = (w lsr 7) land 0x1f in
  let funct3 = (w lsr 12) land 0x7 in
  let rs1 = (w lsr 15) land 0x1f in
  let rs2 = (w lsr 20) land 0x1f in
  let funct7 = (w lsr 25) land 0x7f in
  let imm_i = sign_extend (w lsr 20) 12 in
  let imm_s = sign_extend (((w lsr 25) lsl 5) lor ((w lsr 7) land 0x1f)) 12 in
  let imm_b =
    sign_extend
      ((((w lsr 31) land 1) lsl 12)
      lor (((w lsr 7) land 1) lsl 11)
      lor (((w lsr 25) land 0x3f) lsl 5)
      lor (((w lsr 8) land 0xf) lsl 1))
      13
  in
  let imm_u = w land 0xFFFFF000 in
  let imm_j =
    sign_extend
      ((((w lsr 31) land 1) lsl 20)
      lor (((w lsr 12) land 0xff) lsl 12)
      lor (((w lsr 20) land 1) lsl 11)
      lor (((w lsr 21) land 0x3ff) lsl 1))
      21
  in
  let next = m.pc + 4 in
  let load_at addr f =
    try f addr with Wasm.Rt.Memory.Bounds -> trap "load fault at 0x%x (pc 0x%x)" addr m.pc
  in
  let store_at addr f =
    try f addr with Wasm.Rt.Memory.Bounds -> trap "store fault at 0x%x (pc 0x%x)" addr m.pc
  in
  (match opcode with
  | 0x37 -> set m rd (wrap imm_u) (* LUI *)
  | 0x17 -> set m rd (wrap (m.pc + imm_u)) (* AUIPC *)
  | 0x6f ->
      set m rd next;
      m.pc <- m.pc + imm_j - 4 (* JAL; -4 compensates the common +4 below *)
  | 0x67 ->
      let t = get m rs1 + imm_i in
      set m rd next;
      m.pc <- (t land lnot 1) - 4
  | 0x63 ->
      let a = get m rs1 and b = get m rs2 in
      let taken =
        match funct3 with
        | 0 -> a = b
        | 1 -> a <> b
        | 4 -> a < b
        | 5 -> a >= b
        | 6 -> to_u a < to_u b
        | 7 -> to_u a >= to_u b
        | _ -> trap "bad branch funct3 %d" funct3
      in
      if taken then m.pc <- m.pc + imm_b - 4
  | 0x03 ->
      let addr = to_u (get m rs1 + imm_i) in
      let v =
        match funct3 with
        | 0 -> load_at addr (fun a -> Wasm.Rt.Memory.load8_s m.mem a)
        | 1 -> load_at addr (fun a -> Wasm.Rt.Memory.load16_s m.mem a)
        | 2 -> load_at addr (fun a -> wrap (Int32.to_int (Wasm.Rt.Memory.load32 m.mem a)))
        | 4 -> load_at addr (fun a -> Wasm.Rt.Memory.load8_u m.mem a)
        | 5 -> load_at addr (fun a -> Wasm.Rt.Memory.load16_u m.mem a)
        | _ -> trap "bad load funct3 %d" funct3
      in
      set m rd v
  | 0x23 ->
      let addr = to_u (get m rs1 + imm_s) in
      let v = get m rs2 in
      (match funct3 with
      | 0 -> store_at addr (fun a -> Wasm.Rt.Memory.store8 m.mem a (v land 0xff))
      | 1 -> store_at addr (fun a -> Wasm.Rt.Memory.store16 m.mem a (v land 0xffff))
      | 2 -> store_at addr (fun a -> Wasm.Rt.Memory.store32 m.mem a (Int32.of_int v))
      | _ -> trap "bad store funct3 %d" funct3)
  | 0x13 ->
      let a = get m rs1 in
      let v =
        match funct3 with
        | 0 -> a + imm_i
        | 2 -> if a < imm_i then 1 else 0
        | 3 -> if to_u a < to_u imm_i then 1 else 0
        | 4 -> a lxor imm_i
        | 6 -> a lor imm_i
        | 7 -> a land imm_i
        | 1 -> a lsl (imm_i land 31)
        | 5 ->
            if (w lsr 30) land 1 = 1 then a asr (imm_i land 31)
            else to_u a lsr (imm_i land 31)
        | _ -> trap "bad op-imm funct3 %d" funct3
      in
      set m rd v
  | 0x33 ->
      let a = get m rs1 and b = get m rs2 in
      let v =
        if funct7 = 1 then
          (* M extension *)
          match funct3 with
          | 0 -> a * b
          | 4 -> if b = 0 then -1 else a / b (* DIV truncates toward zero *)
          | 5 -> if b = 0 then -1 else to_u a / to_u b
          | 6 -> if b = 0 then a else a mod b
          | 7 -> if b = 0 then a else to_u a mod to_u b
          | _ -> trap "bad M funct3 %d" funct3
        else
          match funct3 with
          | 0 -> if funct7 = 0x20 then a - b else a + b
          | 1 -> a lsl (b land 31)
          | 2 -> if a < b then 1 else 0
          | 3 -> if to_u a < to_u b then 1 else 0
          | 4 -> a lxor b
          | 5 -> if funct7 = 0x20 then a asr (b land 31) else to_u a lsr (b land 31)
          | 6 -> a lor b
          | 7 -> a land b
          | _ -> trap "bad op funct3 %d" funct3
      in
      set m rd v
  | 0x73 ->
      if w = 0x73 then ecall m
      else if w = 0x100073 then m.halted <- true (* EBREAK *)
      else trap "unsupported system instruction 0x%x" w
  | op -> trap "illegal instruction 0x%08x (opcode 0x%02x) at pc 0x%x" w op m.pc);
  m.pc <- m.pc + 4

let poll_interval = 4096

(** Run until halted or until control returns to {!return_pc}; calls
    [poll] every [poll_interval] instructions (safepoints for the
    scheduler / signals). *)
let run (m : t) ~(ecall : t -> unit) ~(poll : unit -> unit) : unit =
  let count = ref 0 in
  while (not m.halted) && m.pc <> return_pc do
    step m ~ecall;
    incr count;
    if !count land (poll_interval - 1) = 0 then poll ()
  done

(** Call the guest function at [entry] with [arg] in a0 on an interrupted
    machine — a signal handler's nested run — then restore the registers
    and pc it was interrupted at. *)
let call_nested (m : t) ~ecall ~poll ~(entry : int) ~(arg : int) : unit =
  let regs = Array.copy m.regs and pc = m.pc in
  set m Rv_asm.a0 arg;
  set m Rv_asm.ra return_pc;
  m.pc <- entry;
  run m ~ecall ~poll;
  Array.blit regs 0 m.regs 0 32;
  m.pc <- pc
