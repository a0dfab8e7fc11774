(** The interpreter loop over flat code.

    The loop — not the host functions — performs process-model surgery
    (fork clones the machine, exec swaps the process image), mirroring how
    WALI keeps syscall handlers tiny while the engine owns the execution
    environment. *)

open Values
open Rt

type run_result =
  | R_done of value list
  | R_trap of string
  | R_exit of int

let jump (m : machine) (fr : frame) (j : Code.jump) =
  let { Code.target; arity; drop } = j in
  if drop > 0 then begin
    for i = 0 to arity - 1 do
      m.stack.(m.sp - drop - arity + i) <- m.stack.(m.sp - arity + i)
    done;
    m.sp <- m.sp - drop
  end;
  fr.fr_pc <- target

(* Pop the current frame, preserving [fc_arity] results from the stack
   top. The frame record stays in the machine's frame array for reuse by
   the next call at this depth. *)
let pop_frame (m : machine) =
  (match m.prof_hook with Some h -> h m | None -> ());
  if m.depth = 0 then trap "return with no frame";
  let fr = m.frames.(m.depth - 1) in
  let n = fr.fr_code.Code.fc_arity in
  for i = 0 to n - 1 do
    m.stack.(fr.fr_ret_sp + i) <- m.stack.(m.sp - n + i)
  done;
  m.sp <- fr.fr_ret_sp + n;
  m.depth <- m.depth - 1

let addr_of (m : machine) offset =
  let a = Machine.pop m in
  (Int32.to_int (as_i32 a) land 0xFFFFFFFF) + offset

(* The two results of every i32 comparison, shared so a relop or eqz
   allocates nothing. *)
let i32_true = I32 1l
let i32_false = I32 0l
let i32_of_bool b = if b then i32_true else i32_false

let exec_load (m : machine) mem kind addr =
  let v =
    match kind with
    | Code.L_i32 -> I32 (Memory.load32 mem addr)
    | Code.L_i64 -> I64 (Memory.load64 mem addr)
    | Code.L_f32 -> F32 (Memory.load32 mem addr)
    | Code.L_f64 -> F64 (Memory.load64 mem addr)
    | Code.L_i32_8 Ast.SX -> I32 (Int32.of_int (Memory.load8_s mem addr))
    | Code.L_i32_8 Ast.ZX -> I32 (Int32.of_int (Memory.load8_u mem addr))
    | Code.L_i32_16 Ast.SX -> I32 (Int32.of_int (Memory.load16_s mem addr))
    | Code.L_i32_16 Ast.ZX -> I32 (Int32.of_int (Memory.load16_u mem addr))
    | Code.L_i64_8 Ast.SX -> I64 (Int64.of_int (Memory.load8_s mem addr))
    | Code.L_i64_8 Ast.ZX -> I64 (Int64.of_int (Memory.load8_u mem addr))
    | Code.L_i64_16 Ast.SX -> I64 (Int64.of_int (Memory.load16_s mem addr))
    | Code.L_i64_16 Ast.ZX -> I64 (Int64.of_int (Memory.load16_u mem addr))
    | Code.L_i64_32 Ast.SX -> I64 (Int64.of_int32 (Memory.load32 mem addr))
    | Code.L_i64_32 Ast.ZX ->
        I64 (Int64.logand (Int64.of_int32 (Memory.load32 mem addr)) 0xFFFFFFFFL)
  in
  Machine.push m v

let exec_store mem kind addr v =
  match kind with
  | Code.S_i32 -> Memory.store32 mem addr (as_i32 v)
  | Code.S_i64 -> Memory.store64 mem addr (as_i64 v)
  | Code.S_f32 -> Memory.store32 mem addr (as_f32 v)
  | Code.S_f64 -> Memory.store64 mem addr (as_f64 v)
  | Code.S_i32_8 -> Memory.store8 mem addr (Int32.to_int (as_i32 v))
  | Code.S_i32_16 -> Memory.store16 mem addr (Int32.to_int (as_i32 v))
  | Code.S_i64_8 -> Memory.store8 mem addr (Int64.to_int (Int64.logand (as_i64 v) 0xffL))
  | Code.S_i64_16 -> Memory.store16 mem addr (Int64.to_int (Int64.logand (as_i64 v) 0xffffL))
  | Code.S_i64_32 -> Memory.store32 mem addr (Int64.to_int32 (as_i64 v))

let exec_i32_unop o x =
  match o with
  | Ast.Clz -> Int32.of_int (I32_op.clz x)
  | Ast.Ctz -> Int32.of_int (I32_op.ctz x)
  | Ast.Popcnt -> Int32.of_int (I32_op.popcnt x)

let exec_i64_unop o x =
  match o with
  | Ast.Clz -> Int64.of_int (I64_op.clz x)
  | Ast.Ctz -> Int64.of_int (I64_op.ctz x)
  | Ast.Popcnt -> Int64.of_int (I64_op.popcnt x)

let exec_i32_binop o a b =
  let open Int32 in
  match o with
  | Ast.Add -> add a b
  | Ast.Sub -> sub a b
  | Ast.Mul -> mul a b
  | Ast.Div_s -> I32_op.div_s a b
  | Ast.Div_u -> I32_op.div_u a b
  | Ast.Rem_s -> I32_op.rem_s a b
  | Ast.Rem_u -> I32_op.rem_u a b
  | Ast.And -> logand a b
  | Ast.Or -> logor a b
  | Ast.Xor -> logxor a b
  | Ast.Shl -> I32_op.shl a b
  | Ast.Shr_s -> I32_op.shr_s a b
  | Ast.Shr_u -> I32_op.shr_u a b
  | Ast.Rotl -> I32_op.rotl a b
  | Ast.Rotr -> I32_op.rotr a b

let exec_i64_binop o a b =
  let open Int64 in
  match o with
  | Ast.Add -> add a b
  | Ast.Sub -> sub a b
  | Ast.Mul -> mul a b
  | Ast.Div_s -> I64_op.div_s a b
  | Ast.Div_u -> I64_op.div_u a b
  | Ast.Rem_s -> I64_op.rem_s a b
  | Ast.Rem_u -> I64_op.rem_u a b
  | Ast.And -> logand a b
  | Ast.Or -> logor a b
  | Ast.Xor -> logxor a b
  | Ast.Shl -> I64_op.shl a b
  | Ast.Shr_s -> I64_op.shr_s a b
  | Ast.Shr_u -> I64_op.shr_u a b
  | Ast.Rotl -> I64_op.rotl a b
  | Ast.Rotr -> I64_op.rotr a b

let exec_i32_relop o a b =
  match o with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.Lt_s -> Int32.compare a b < 0
  | Ast.Lt_u -> I32_op.unsigned_compare a b < 0
  | Ast.Gt_s -> Int32.compare a b > 0
  | Ast.Gt_u -> I32_op.unsigned_compare a b > 0
  | Ast.Le_s -> Int32.compare a b <= 0
  | Ast.Le_u -> I32_op.unsigned_compare a b <= 0
  | Ast.Ge_s -> Int32.compare a b >= 0
  | Ast.Ge_u -> I32_op.unsigned_compare a b >= 0

let exec_i64_relop o a b =
  match o with
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.Lt_s -> Int64.compare a b < 0
  | Ast.Lt_u -> I64_op.unsigned_compare a b < 0
  | Ast.Gt_s -> Int64.compare a b > 0
  | Ast.Gt_u -> I64_op.unsigned_compare a b > 0
  | Ast.Le_s -> Int64.compare a b <= 0
  | Ast.Le_u -> I64_op.unsigned_compare a b <= 0
  | Ast.Ge_s -> Int64.compare a b >= 0
  | Ast.Ge_u -> I64_op.unsigned_compare a b >= 0

(* Round to the nearest integer, ties to even, keeping the sign of a zero
   result: [Float.round] takes ties away from zero. *)
let nearest x =
  let r = Float.round x in
  let r =
    if Float.abs (x -. Float.trunc x) = 0.5 && Float.rem r 2.0 <> 0.0 then
      r -. Float.copy_sign 1.0 x
    else r
  in
  Float.copy_sign r x

let exec_f_unop o x =
  match o with
  | Ast.Neg -> -.x
  | Ast.Abs -> Float.abs x
  | Ast.Sqrt -> Float.sqrt x
  | Ast.Ceil -> Float.ceil x
  | Ast.Floor -> Float.floor x
  | Ast.Trunc -> Float.trunc x
  | Ast.Nearest -> nearest x

let exec_f_binop o a b =
  match o with
  | Ast.Fadd -> a +. b
  | Ast.Fsub -> a -. b
  | Ast.Fmul -> a *. b
  | Ast.Fdiv -> a /. b
  | Ast.Fmin -> Float.min a b
  | Ast.Fmax -> Float.max a b
  | Ast.Copysign -> Float.copy_sign a b

let exec_f_relop o a b =
  match o with
  | Ast.Feq -> a = b
  | Ast.Fne -> a <> b
  | Ast.Flt -> a < b
  | Ast.Fgt -> a > b
  | Ast.Fle -> a <= b
  | Ast.Fge -> a >= b

let exec_cvt (c : Code.cvt) v =
  match c with
  | Code.C_i32_wrap_i64 -> I32 (Int64.to_int32 (as_i64 v))
  | Code.C_i64_extend_i32 Ast.SX -> I64 (Int64.of_int32 (as_i32 v))
  | Code.C_i64_extend_i32 Ast.ZX ->
      I64 (Int64.logand (Int64.of_int32 (as_i32 v)) 0xFFFFFFFFL)
  | Code.C_i32_trunc_f32 Ast.SX ->
      I32 (Convert.trunc_f64_i32_s (Int32.float_of_bits (as_f32 v)))
  | Code.C_i32_trunc_f32 Ast.ZX ->
      I32 (Convert.trunc_f64_i32_u (Int32.float_of_bits (as_f32 v)))
  | Code.C_i32_trunc_f64 Ast.SX ->
      I32 (Convert.trunc_f64_i32_s (Int64.float_of_bits (as_f64 v)))
  | Code.C_i32_trunc_f64 Ast.ZX ->
      I32 (Convert.trunc_f64_i32_u (Int64.float_of_bits (as_f64 v)))
  | Code.C_i64_trunc_f32 Ast.SX ->
      I64 (Convert.trunc_f64_i64_s (Int32.float_of_bits (as_f32 v)))
  | Code.C_i64_trunc_f32 Ast.ZX ->
      I64 (Convert.trunc_f64_i64_u (Int32.float_of_bits (as_f32 v)))
  | Code.C_i64_trunc_f64 Ast.SX ->
      I64 (Convert.trunc_f64_i64_s (Int64.float_of_bits (as_f64 v)))
  | Code.C_i64_trunc_f64 Ast.ZX ->
      I64 (Convert.trunc_f64_i64_u (Int64.float_of_bits (as_f64 v)))
  | Code.C_f32_convert_i32 Ast.SX ->
      F32 (Int32.bits_of_float (Int32.to_float (as_i32 v)))
  | Code.C_f32_convert_i32 Ast.ZX ->
      F32 (Int32.bits_of_float (Convert.convert_i32_u_to_float (as_i32 v)))
  | Code.C_f32_convert_i64 Ast.SX ->
      F32 (Int32.bits_of_float (Int64.to_float (as_i64 v)))
  | Code.C_f32_convert_i64 Ast.ZX ->
      F32 (Int32.bits_of_float (Convert.convert_i64_u_to_float (as_i64 v)))
  | Code.C_f64_convert_i32 Ast.SX ->
      F64 (Int64.bits_of_float (Int32.to_float (as_i32 v)))
  | Code.C_f64_convert_i32 Ast.ZX ->
      F64 (Int64.bits_of_float (Convert.convert_i32_u_to_float (as_i32 v)))
  | Code.C_f64_convert_i64 Ast.SX ->
      F64 (Int64.bits_of_float (Int64.to_float (as_i64 v)))
  | Code.C_f64_convert_i64 Ast.ZX ->
      F64 (Int64.bits_of_float (Convert.convert_i64_u_to_float (as_i64 v)))
  | Code.C_f32_demote_f64 ->
      F32 (Int32.bits_of_float (Int64.float_of_bits (as_f64 v)))
  | Code.C_f64_promote_f32 ->
      F64 (Int64.bits_of_float (Int32.float_of_bits (as_f32 v)))
  | Code.C_i32_reinterpret_f32 -> I32 (as_f32 v)
  | Code.C_i64_reinterpret_f64 -> I64 (as_f64 v)
  | Code.C_f32_reinterpret_i32 -> F32 (as_i32 v)
  | Code.C_f64_reinterpret_i64 -> F64 (as_i64 v)
  | Code.C_i32_extend8_s ->
      let x = Int32.to_int (as_i32 v) land 0xff in
      I32 (Int32.of_int (if x >= 0x80 then x - 0x100 else x))
  | Code.C_i32_extend16_s ->
      let x = Int32.to_int (as_i32 v) land 0xffff in
      I32 (Int32.of_int (if x >= 0x8000 then x - 0x10000 else x))
  | Code.C_i64_extend8_s ->
      let x = Int64.to_int (Int64.logand (as_i64 v) 0xffL) in
      I64 (Int64.of_int (if x >= 0x80 then x - 0x100 else x))
  | Code.C_i64_extend16_s ->
      let x = Int64.to_int (Int64.logand (as_i64 v) 0xffffL) in
      I64 (Int64.of_int (if x >= 0x8000 then x - 0x10000 else x))
  | Code.C_i64_extend32_s -> I64 (Int64.of_int32 (Int64.to_int32 (as_i64 v)))

exception Exit_trap of run_result

(** Run machine [m0] until its frame depth returns to [stop_depth]
    (0 = run to completion). [results] gives the arity of the entry
    function. *)
let rec run_machine ?(stop_depth = 0) (m0 : machine) ~(results : int) :
    run_result =
  let m = ref m0 in
  let results = ref results in
  let stop_depth = ref stop_depth in
  let call_host (h : func_inst) hf_type (hf_fn : host_fn) =
    ignore h;
    let n = List.length hf_type.Types.params in
    let args = Array.make n (I32 0l) in
    for i = n - 1 downto 0 do
      args.(i) <- Machine.pop !m
    done;
    match hf_fn !m args with
    | H_return vs -> List.iter (Machine.push !m) vs
    | H_trap s -> raise (Exit_trap (R_trap s))
    | H_exit code -> raise (Exit_trap (R_exit code))
    | H_fork register_child ->
        let child = Machine.clone !m in
        Machine.push child (I64 0L);
        let pid = register_child child in
        Machine.push !m (I64 pid)
    | H_exec make ->
        let m' = make () in
        m := m';
        results := 0;
        stop_depth := 0
  in
  let step fr =
    let mch = !m in
    let op = fr.fr_code.Code.fc_ops.(fr.fr_pc) in
    fr.fr_pc <- fr.fr_pc + 1;
    mch.steps <- mch.steps + 1;
    match op with
    | Code.K_unreachable -> trap "unreachable executed"
    | Code.K_br j -> jump mch fr j
    | Code.K_br_if j ->
        let c = as_i32 (Machine.pop mch) in
        if c <> 0l then jump mch fr j
    | Code.K_br_table (js, dj) ->
        let i = Int32.to_int (as_i32 (Machine.pop mch)) land 0xFFFFFFFF in
        let j = if i >= 0 && i < Array.length js then js.(i) else dj in
        jump mch fr j
    | Code.K_return -> pop_frame mch
    | Code.K_call fi -> (
        match fr.fr_inst.i_funcs.(fi) with
        | Wasm_func { wf_inst; wf_code } -> Machine.push_frame mch wf_inst wf_code
        | Host_func { hf_type; hf_fn; _ } as h -> call_host h hf_type hf_fn)
    | Code.K_call_indirect (ti, tbl) -> (
        let i = Int32.to_int (as_i32 (Machine.pop mch)) land 0xFFFFFFFF in
        let table = fr.fr_inst.i_tables.(tbl) in
        match Table.get table i with
        | None -> trap "uninitialized element %d" i
        | Some fidx ->
            let f = fr.fr_inst.i_funcs.(fidx) in
            let expect = fr.fr_inst.i_types.(ti) in
            if not (Types.func_type_equal (func_type_of f) expect) then
              trap "indirect call type mismatch: expected %s, %s has %s"
                (Types.string_of_func_type expect)
                (func_name_of f)
                (Types.string_of_func_type (func_type_of f));
            (match f with
            | Wasm_func { wf_inst; wf_code } ->
                Machine.push_frame mch wf_inst wf_code
            | Host_func { hf_type; hf_fn; _ } as h -> call_host h hf_type hf_fn))
    | Code.K_drop -> ignore (Machine.pop mch)
    | Code.K_select ->
        let c = as_i32 (Machine.pop mch) in
        let v2 = Machine.pop mch in
        let v1 = Machine.pop mch in
        Machine.push mch (if c <> 0l then v1 else v2)
    | Code.K_local_get i -> Machine.push mch fr.fr_locals.(i)
    | Code.K_local_set i -> fr.fr_locals.(i) <- Machine.pop mch
    | Code.K_local_tee i -> fr.fr_locals.(i) <- Machine.peek mch
    | Code.K_global_get i -> Machine.push mch (Global.get fr.fr_inst.i_globals.(i))
    | Code.K_global_set i -> Global.set fr.fr_inst.i_globals.(i) (Machine.pop mch)
    | Code.K_load (kind, off) ->
        let mem = fr.fr_inst.i_memories.(0) in
        let addr = addr_of mch off in
        (try exec_load mch mem kind addr
         with Memory.Bounds -> trap "out of bounds memory access at %d" addr)
    | Code.K_store (kind, off) ->
        let mem = fr.fr_inst.i_memories.(0) in
        let v = Machine.pop mch in
        let addr = addr_of mch off in
        (try exec_store mem kind addr v
         with Memory.Bounds -> trap "out of bounds memory access at %d" addr)
    | Code.K_memory_size ->
        Machine.push mch (I32 (Int32.of_int (Memory.size_pages fr.fr_inst.i_memories.(0))))
    | Code.K_memory_grow ->
        let n = Int32.to_int (as_i32 (Machine.pop mch)) in
        let r = Memory.grow fr.fr_inst.i_memories.(0) n in
        Machine.push mch (I32 (Int32.of_int r))
    | Code.K_memory_fill ->
        let len = Int32.to_int (as_i32 (Machine.pop mch)) land 0xFFFFFFFF in
        let byte = Int32.to_int (as_i32 (Machine.pop mch)) in
        let dst = Int32.to_int (as_i32 (Machine.pop mch)) land 0xFFFFFFFF in
        (try Memory.fill fr.fr_inst.i_memories.(0) ~dst ~byte ~len
         with Memory.Bounds -> trap "out of bounds memory fill")
    | Code.K_memory_copy ->
        let len = Int32.to_int (as_i32 (Machine.pop mch)) land 0xFFFFFFFF in
        let src = Int32.to_int (as_i32 (Machine.pop mch)) land 0xFFFFFFFF in
        let dst = Int32.to_int (as_i32 (Machine.pop mch)) land 0xFFFFFFFF in
        (try Memory.copy fr.fr_inst.i_memories.(0) ~dst ~src ~len
         with Memory.Bounds -> trap "out of bounds memory copy")
    | Code.K_const v -> Machine.push mch v
    | Code.K_i32_eqz -> Machine.push mch (i32_of_bool (as_i32 (Machine.pop mch) = 0l))
    | Code.K_i64_eqz -> Machine.push mch (i32_of_bool (as_i64 (Machine.pop mch) = 0L))
    | Code.K_i32_unop o -> Machine.push mch (I32 (exec_i32_unop o (as_i32 (Machine.pop mch))))
    | Code.K_i64_unop o -> Machine.push mch (I64 (exec_i64_unop o (as_i64 (Machine.pop mch))))
    | Code.K_i32_binop o ->
        let b = as_i32 (Machine.pop mch) in
        let a = as_i32 (Machine.pop mch) in
        Machine.push mch (I32 (exec_i32_binop o a b))
    | Code.K_i64_binop o ->
        let b = as_i64 (Machine.pop mch) in
        let a = as_i64 (Machine.pop mch) in
        Machine.push mch (I64 (exec_i64_binop o a b))
    | Code.K_i32_relop o ->
        let b = as_i32 (Machine.pop mch) in
        let a = as_i32 (Machine.pop mch) in
        Machine.push mch (i32_of_bool (exec_i32_relop o a b))
    | Code.K_i64_relop o ->
        let b = as_i64 (Machine.pop mch) in
        let a = as_i64 (Machine.pop mch) in
        Machine.push mch (i32_of_bool (exec_i64_relop o a b))
    | Code.K_f32_unop o ->
        let x = Int32.float_of_bits (as_f32 (Machine.pop mch)) in
        Machine.push mch (F32 (Int32.bits_of_float (exec_f_unop o x)))
    | Code.K_f64_unop o ->
        let x = Int64.float_of_bits (as_f64 (Machine.pop mch)) in
        Machine.push mch (F64 (Int64.bits_of_float (exec_f_unop o x)))
    | Code.K_f32_binop o ->
        let b = Int32.float_of_bits (as_f32 (Machine.pop mch)) in
        let a = Int32.float_of_bits (as_f32 (Machine.pop mch)) in
        Machine.push mch (F32 (Int32.bits_of_float (exec_f_binop o a b)))
    | Code.K_f64_binop o ->
        let b = Int64.float_of_bits (as_f64 (Machine.pop mch)) in
        let a = Int64.float_of_bits (as_f64 (Machine.pop mch)) in
        Machine.push mch (F64 (Int64.bits_of_float (exec_f_binop o a b)))
    | Code.K_f32_relop o ->
        let b = Int32.float_of_bits (as_f32 (Machine.pop mch)) in
        let a = Int32.float_of_bits (as_f32 (Machine.pop mch)) in
        Machine.push mch (i32_of_bool (exec_f_relop o a b))
    | Code.K_f64_relop o ->
        let b = Int64.float_of_bits (as_f64 (Machine.pop mch)) in
        let a = Int64.float_of_bits (as_f64 (Machine.pop mch)) in
        Machine.push mch (i32_of_bool (exec_f_relop o a b))
    | Code.K_cvt c -> Machine.push mch (exec_cvt c (Machine.pop mch))
    | Code.K_poll -> (
        match mch.poll_hook with Some f -> f mch | None -> ())
    (* Superinstructions: dedicated handlers that read/write stack slots
       and locals directly instead of going through Machine.push/pop.
       Each charges [op_width - 1] extra steps *before* any trap can
       fire, so instruction counts (and trap-time counts) are identical
       to the unfused engine. *)
    | Code.F_ll_i32_binop (a, b, o) ->
        mch.steps <- mch.steps + 2;
        mch.fused <- mch.fused + 1;
        Machine.push mch
          (I32 (exec_i32_binop o (as_i32 fr.fr_locals.(a)) (as_i32 fr.fr_locals.(b))))
    | Code.F_ll_i32_binop_set (a, b, o, d) ->
        mch.steps <- mch.steps + 3;
        mch.fused <- mch.fused + 1;
        fr.fr_locals.(d) <-
          I32 (exec_i32_binop o (as_i32 fr.fr_locals.(a)) (as_i32 fr.fr_locals.(b)))
    | Code.F_lc_i32_binop (a, c, o) ->
        mch.steps <- mch.steps + 2;
        mch.fused <- mch.fused + 1;
        Machine.push mch (I32 (exec_i32_binop o (as_i32 fr.fr_locals.(a)) c))
    | Code.F_lc_i32_binop_set (a, c, o, d) ->
        mch.steps <- mch.steps + 3;
        mch.fused <- mch.fused + 1;
        fr.fr_locals.(d) <- I32 (exec_i32_binop o (as_i32 fr.fr_locals.(a)) c)
    | Code.F_const_i32_binop (c, o) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let t = mch.sp - 1 in
        mch.stack.(t) <- I32 (exec_i32_binop o (as_i32 mch.stack.(t)) c)
    | Code.F_i32_binop_set (o, d) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let b = as_i32 mch.stack.(mch.sp - 1) in
        let a = as_i32 mch.stack.(mch.sp - 2) in
        mch.sp <- mch.sp - 2;
        fr.fr_locals.(d) <- I32 (exec_i32_binop o a b)
    | Code.F_local_load (a, kind, off) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let mem = fr.fr_inst.i_memories.(0) in
        let addr = (Int32.to_int (as_i32 fr.fr_locals.(a)) land 0xFFFFFFFF) + off in
        (try exec_load mch mem kind addr
         with Memory.Bounds -> trap "out of bounds memory access at %d" addr)
    | Code.F_i32_relop_br_if (o, j) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let b = as_i32 mch.stack.(mch.sp - 1) in
        let a = as_i32 mch.stack.(mch.sp - 2) in
        mch.sp <- mch.sp - 2;
        if exec_i32_relop o a b then jump mch fr j
    | Code.F_ll_i32_relop_br_if (a, b, o, j) ->
        mch.steps <- mch.steps + 3;
        mch.fused <- mch.fused + 1;
        if exec_i32_relop o (as_i32 fr.fr_locals.(a)) (as_i32 fr.fr_locals.(b))
        then jump mch fr j
    | Code.F_lc_i32_relop_br_if (a, c, o, j) ->
        mch.steps <- mch.steps + 3;
        mch.fused <- mch.fused + 1;
        if exec_i32_relop o (as_i32 fr.fr_locals.(a)) c then jump mch fr j
    | Code.F_lc_store (a, v, kind, off) ->
        mch.steps <- mch.steps + 2;
        mch.fused <- mch.fused + 1;
        let mem = fr.fr_inst.i_memories.(0) in
        let addr = (Int32.to_int (as_i32 fr.fr_locals.(a)) land 0xFFFFFFFF) + off in
        (try exec_store mem kind addr v
         with Memory.Bounds -> trap "out of bounds memory access at %d" addr)
    | Code.F_i32_eqz_br_if j ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        if as_i32 (Machine.pop mch) = 0l then jump mch fr j
    | Code.F_i32_relop_eqz_br_if (o, j) ->
        mch.steps <- mch.steps + 2;
        mch.fused <- mch.fused + 1;
        let b = as_i32 mch.stack.(mch.sp - 1) in
        let a = as_i32 mch.stack.(mch.sp - 2) in
        mch.sp <- mch.sp - 2;
        if not (exec_i32_relop o a b) then jump mch fr j
    | Code.F_ll_i32_relop_eqz_br_if (a, b, o, j) ->
        mch.steps <- mch.steps + 4;
        mch.fused <- mch.fused + 1;
        if not (exec_i32_relop o (as_i32 fr.fr_locals.(a)) (as_i32 fr.fr_locals.(b)))
        then jump mch fr j
    | Code.F_lc_i32_relop_eqz_br_if (a, c, o, j) ->
        mch.steps <- mch.steps + 4;
        mch.fused <- mch.fused + 1;
        if not (exec_i32_relop o (as_i32 fr.fr_locals.(a)) c) then jump mch fr j
    | Code.F_l_i32_binop (b, o) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let t = mch.sp - 1 in
        mch.stack.(t) <-
          I32 (exec_i32_binop o (as_i32 mch.stack.(t)) (as_i32 fr.fr_locals.(b)))
    | Code.F_i32_binop_load (o, kind, off) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let b = as_i32 mch.stack.(mch.sp - 1) in
        let a = as_i32 mch.stack.(mch.sp - 2) in
        mch.sp <- mch.sp - 2;
        let mem = fr.fr_inst.i_memories.(0) in
        let addr = (Int32.to_int (exec_i32_binop o a b) land 0xFFFFFFFF) + off in
        (try exec_load mch mem kind addr
         with Memory.Bounds -> trap "out of bounds memory access at %d" addr)
    | Code.F_i32_binop_binop (o1, o2) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let z = as_i32 mch.stack.(mch.sp - 1) in
        let y = as_i32 mch.stack.(mch.sp - 2) in
        let x = as_i32 mch.stack.(mch.sp - 3) in
        mch.sp <- mch.sp - 2;
        mch.stack.(mch.sp - 1) <- I32 (exec_i32_binop o2 x (exec_i32_binop o1 y z))
    | Code.F_i32_binop_store (o, kind, off) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let y = as_i32 mch.stack.(mch.sp - 1) in
        let x = as_i32 mch.stack.(mch.sp - 2) in
        let a = mch.stack.(mch.sp - 3) in
        mch.sp <- mch.sp - 3;
        let mem = fr.fr_inst.i_memories.(0) in
        let addr = (Int32.to_int (as_i32 a) land 0xFFFFFFFF) + off in
        (try exec_store mem kind addr (I32 (exec_i32_binop o x y))
         with Memory.Bounds -> trap "out of bounds memory access at %d" addr)
    | Code.F_l_store (v, kind, off) ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let mem = fr.fr_inst.i_memories.(0) in
        let addr = addr_of mch off in
        (try exec_store mem kind addr fr.fr_locals.(v)
         with Memory.Bounds -> trap "out of bounds memory access at %d" addr)
    | Code.F_set_get i ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        fr.fr_locals.(i) <- Machine.peek mch
    | Code.F_i32_eqz_eqz ->
        mch.steps <- mch.steps + 1;
        mch.fused <- mch.fused + 1;
        let t = mch.sp - 1 in
        mch.stack.(t) <- i32_of_bool (as_i32 mch.stack.(t) <> 0l)
  in
  try
    let rec loop () =
      if !m.depth <= !stop_depth then begin
        let n = !results in
        let vs = ref [] in
        for _ = 1 to n do
          vs := Machine.pop !m :: !vs
        done;
        R_done !vs
      end
      else begin
        let mch = !m in
        step mch.frames.(mch.depth - 1);
        loop ()
      end
    in
    loop ()
  with
  | Trap s -> R_trap s
  | Exit_trap r -> r

(** Re-entrant call: invoke [f] on a machine that is already mid-execution
    (e.g. to run a virtual signal handler at a safepoint) and return when
    it completes, leaving the interrupted frames untouched. *)
and call_nested (m : machine) (f : func_inst) (args : value list) : run_result =
  let ft = func_type_of f in
  match f with
  | Wasm_func { wf_inst; wf_code } ->
      let base = m.depth in
      List.iter (Machine.push m) args;
      Machine.push_frame m wf_inst wf_code;
      run_machine m ~results:(List.length ft.Types.results) ~stop_depth:base
  | Host_func { hf_fn; _ } -> (
      match hf_fn m (Array.of_list args) with
      | H_return vs -> R_done vs
      | H_trap s -> R_trap s
      | H_exit c -> R_exit c
      | H_fork _ | H_exec _ -> R_trap "fork/exec in nested host call")

(** Invoke [f] on a fresh entry in machine [m] (frames must be empty). *)
let invoke (m : machine) (f : func_inst) (args : value list) : run_result =
  assert (m.depth = 0);
  let ft = func_type_of f in
  List.iter (Machine.push m) args;
  match f with
  | Wasm_func { wf_inst; wf_code } ->
      Machine.push_frame m wf_inst wf_code;
      run_machine m ~results:(List.length ft.Types.results)
  | Host_func { hf_type; hf_fn; _ } -> (
      let n = List.length hf_type.Types.params in
      let a = Array.make n (I32 0l) in
      for i = n - 1 downto 0 do
        a.(i) <- Machine.pop m
      done;
      match hf_fn m a with
      | H_return vs -> R_done vs
      | H_trap s -> R_trap s
      | H_exit c -> R_exit c
      | H_fork _ | H_exec _ -> R_trap "fork/exec outside wasm context")

(** Resume a machine that already has frames (used after fork: the child
    continues from its cloned state). *)
let resume (m : machine) ~(results : int) : run_result =
  run_machine m ~results
