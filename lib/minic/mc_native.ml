(** MiniC -> host-closure backend: the "native" baseline.

    The program compiles to OCaml closures over an explicit store (a flat
    byte memory laid out exactly like the Wasm target), so it executes
    without any bytecode interpretation — playing the role of natively
    compiled code in the Fig 8 comparison and in differential tests
    against the Wasm and RV32 backends.

    The runner supplies the OS surface: a [sys] callback (the libc ->
    kernel boundary), argv/env accessors, and thread spawning. Safepoint
    polling runs at loop headers, mirroring the engines, so signals reach
    native processes too. *)

open Mc_ast

type hooks = {
  h_sys : string -> int array -> int; (* syscall by name *)
  h_builtin : string -> int array -> int; (* argc/argv_len/.../thread_spawn *)
  h_poll : unit -> unit; (* loop-header safepoint *)
}

(* Execution state passed to every compiled closure. *)
type st = {
  mem : Wasm.Rt.Memory.t;
  hooks : hooks;
  funcs : (st -> int array -> int) array;
}

exception Ret of int
exception Brk
exception Cnt

let wrap v = (v land 0xFFFFFFFF) - (if v land 0x80000000 <> 0 then 0x100000000 else 0)

let load mem ty addr =
  match ty with
  | TChar -> Wasm.Rt.Memory.load8_u mem addr
  | _ -> wrap (Int32.to_int (Wasm.Rt.Memory.load32 mem addr))

let store mem ty addr v =
  match ty with
  | TChar -> Wasm.Rt.Memory.store8 mem addr v
  | _ -> Wasm.Rt.Memory.store32 mem addr (Int32.of_int v)

type gsym = { g_addr : int; g_ty : ty; g_is_array : bool }

type cctx = {
  env : Mc_check.env;
  globals : (string, gsym) Hashtbl.t;
  strings : (string, int) Hashtbl.t;
  mutable data : (int * string) list;
  mutable data_end : int;
  func_idx : (string, int) Hashtbl.t;
  table_idx : (string, int) Hashtbl.t;
}

let align4 n = (n + 3) land lnot 3

let intern ctx s =
  match Hashtbl.find_opt ctx.strings s with
  | Some a -> a
  | None ->
      let a = ctx.data_end in
      ctx.data <- (a, s ^ "\000") :: ctx.data;
      ctx.data_end <- align4 (a + String.length s + 1);
      Hashtbl.replace ctx.strings s a;
      a

type fctx = { locals : (string, int * ty) Hashtbl.t; mutable nlocals : int }

let lookup_var ctx fc n : ty =
  match Hashtbl.find_opt fc.locals n with
  | Some (_, t) -> t
  | None -> (
      match Hashtbl.find_opt ctx.globals n with
      | Some g -> if g.g_is_array then TPtr g.g_ty else g.g_ty
      | None -> error "undefined variable %s" n)

let ty_of ctx fc e = Mc_check.ty_of (lookup_var ctx fc) ctx.env e

(* compile expr -> (st -> int array -> int) where the array holds locals *)
let rec cexpr ctx fc (e : expr) : st -> int array -> int =
  match e with
  | EInt n ->
      let n = wrap n in
      fun _ _ -> n
  | ESizeof t ->
      let s = size_of t in
      fun _ _ -> s
  | EStr s ->
      let a = intern ctx s in
      fun _ _ -> a
  | EFnptr f ->
      let slot = Hashtbl.find ctx.table_idx f in
      fun _ _ -> slot
  | EVar n -> (
      match Hashtbl.find_opt fc.locals n with
      | Some (i, _) -> fun _ l -> l.(i)
      | None -> (
          match Hashtbl.find_opt ctx.globals n with
          | Some g ->
              if g.g_is_array then fun _ _ -> g.g_addr
              else
                let addr = g.g_addr and t = g.g_ty in
                fun st _ -> load st.mem t addr
          | None -> error "undefined variable %s" n))
  | ECall (f, args) ->
      let idx = Hashtbl.find ctx.func_idx f in
      let cargs = Array.of_list (List.map (cexpr ctx fc) args) in
      fun st l ->
        let a = Array.map (fun c -> c st l) cargs in
        st.funcs.(idx) st a
  | ESyscall (name, args) ->
      let cargs = Array.of_list (List.map (cexpr ctx fc) args) in
      fun st l -> st.hooks.h_sys name (Array.map (fun c -> c st l) cargs)
  | EBuiltin ("memcopy", [ d; s; n ]) ->
      let cd = cexpr ctx fc d and cs = cexpr ctx fc s and cn = cexpr ctx fc n in
      fun st l ->
        Wasm.Rt.Memory.copy st.mem ~dst:(cd st l) ~src:(cs st l) ~len:(cn st l);
        0
  | EBuiltin ("memfill", [ d; c; n ]) ->
      let cd = cexpr ctx fc d and cc = cexpr ctx fc c and cn = cexpr ctx fc n in
      fun st l ->
        Wasm.Rt.Memory.fill st.mem ~dst:(cd st l) ~byte:(cc st l) ~len:(cn st l);
        0
  | EBuiltin ("calli", target :: args) ->
      let ct = cexpr ctx fc target in
      let cargs = Array.of_list (List.map (cexpr ctx fc) args) in
      (* slot -> func index, resolved lazily because the callee may be
         compiled after this call site *)
      let inverse = Hashtbl.create 8 in
      let resolve slot =
        if Hashtbl.length inverse = 0 then
          Hashtbl.iter
            (fun f s -> Hashtbl.replace inverse s (Hashtbl.find ctx.func_idx f))
            ctx.table_idx;
        Hashtbl.find_opt inverse slot
      in
      fun st l ->
        let slot = ct st l in
        let a = Array.map (fun c -> c st l) cargs in
        (match resolve slot with
        | Some fi -> st.funcs.(fi) st a
        | None -> Wasm.Values.trap "calli: bad function pointer %d" slot)
  | EBuiltin (b, args) ->
      let cargs = Array.of_list (List.map (cexpr ctx fc) args) in
      fun st l -> st.hooks.h_builtin b (Array.map (fun c -> c st l) cargs)
  | EUnop (Neg, a) ->
      let c = cexpr ctx fc a in
      fun st l -> wrap (-c st l)
  | EUnop (Not, a) ->
      let c = cexpr ctx fc a in
      fun st l -> if c st l = 0 then 1 else 0
  | EUnop (Bnot, a) ->
      let c = cexpr ctx fc a in
      fun st l -> wrap (lnot (c st l))
  | EBinop (And, a, b) ->
      let ca = cexpr ctx fc a and cb = cexpr ctx fc b in
      fun st l -> if ca st l <> 0 && cb st l <> 0 then 1 else 0
  | EBinop (Or, a, b) ->
      let ca = cexpr ctx fc a and cb = cexpr ctx fc b in
      fun st l -> if ca st l <> 0 || cb st l <> 0 then 1 else 0
  | EBinop (op, a, b) -> cbinop ctx fc op a b
  | EAssign (l, r) -> cassign ctx fc l r
  | EIndex (p, i) ->
      let t = ty_of ctx fc e in
      let caddr = caddr_index ctx fc p i in
      fun st l -> load st.mem t (caddr st l)
  | EDeref p ->
      let t = ty_of ctx fc e in
      let cp = cexpr ctx fc p in
      fun st l -> load st.mem t (cp st l)
  | ECast (_, a) -> cexpr ctx fc a
  | ECond (c, a, b) ->
      let cc = cexpr ctx fc c and ca = cexpr ctx fc a and cb = cexpr ctx fc b in
      fun st l -> if cc st l <> 0 then ca st l else cb st l

and cbinop ctx fc op a b =
  let ta = ty_of ctx fc a and tb = ty_of ctx fc b in
  let ca = cexpr ctx fc a and cb = cexpr ctx fc b in
  let sa = elem_size ta and sb = elem_size tb in
  match (op, ta, tb) with
  | Add, TPtr _, _ -> fun st l -> wrap (ca st l + (cb st l * sa))
  | Add, _, TPtr _ -> fun st l -> wrap ((ca st l * sb) + cb st l)
  | Sub, TPtr _, (TInt | TChar) -> fun st l -> wrap (ca st l - (cb st l * sa))
  | Sub, TPtr _, TPtr _ -> fun st l -> (ca st l - cb st l) / sa
  | _ ->
      let f =
        match op with
        | Add -> fun x y -> wrap (x + y)
        | Sub -> fun x y -> wrap (x - y)
        | Mul -> fun x y -> wrap (x * y)
        | Div ->
            fun x y ->
              if y = 0 then Wasm.Values.trap "integer divide by zero"
              else wrap (x / y)
        | Mod ->
            fun x y ->
              if y = 0 then Wasm.Values.trap "integer divide by zero"
              else wrap (x mod y)
        | Shl -> fun x y -> wrap (x lsl (y land 31))
        | Shr -> fun x y -> wrap (x asr (y land 31))
        | Band -> fun x y -> x land y
        | Bor -> fun x y -> x lor y
        | Bxor -> fun x y -> x lxor y
        | Lt -> fun x y -> if x < y then 1 else 0
        | Le -> fun x y -> if x <= y then 1 else 0
        | Gt -> fun x y -> if x > y then 1 else 0
        | Ge -> fun x y -> if x >= y then 1 else 0
        | Eq -> fun x y -> if x = y then 1 else 0
        | Ne -> fun x y -> if x <> y then 1 else 0
        | And | Or -> assert false
      in
      fun st l -> f (ca st l) (cb st l)

and caddr_index ctx fc p i =
  let pt = ty_of ctx fc p in
  let sz = elem_size pt in
  let cp = cexpr ctx fc p and ci = cexpr ctx fc i in
  fun st l -> cp st l + (ci st l * sz)

and cassign ctx fc lhs rhs : st -> int array -> int =
  let cr = cexpr ctx fc rhs in
  match lhs with
  | EVar n -> (
      match Hashtbl.find_opt fc.locals n with
      | Some (i, _) ->
          fun st l ->
            let v = cr st l in
            l.(i) <- v;
            v
      | None -> (
          match Hashtbl.find_opt ctx.globals n with
          | Some g when not g.g_is_array ->
              let addr = g.g_addr and t = g.g_ty in
              fun st l ->
                let v = cr st l in
                store st.mem t addr v;
                v
          | Some _ -> error "cannot assign to array %s" n
          | None -> error "undefined variable %s" n))
  | EIndex (p, i) ->
      let t = ty_of ctx fc lhs in
      let caddr = caddr_index ctx fc p i in
      fun st l ->
        let a = caddr st l in
        let v = cr st l in
        store st.mem t a v;
        v
  | EDeref p ->
      let t = ty_of ctx fc lhs in
      let cp = cexpr ctx fc p in
      fun st l ->
        let a = cp st l in
        let v = cr st l in
        store st.mem t a v;
        v
  | _ -> error "not an lvalue"

let rec cstmt ctx fc (s : stmt) : st -> int array -> unit =
  match s with
  | SExpr e ->
      let c = cexpr ctx fc e in
      fun st l -> ignore (c st l)
  | SDecl (t, n, init) -> (
      let idx = fc.nlocals in
      fc.nlocals <- fc.nlocals + 1;
      Hashtbl.replace fc.locals n (idx, t);
      match init with
      | Some e ->
          let c = cexpr ctx fc e in
          fun st l -> l.(idx) <- c st l
      | None -> fun _ _ -> ())
  | SIf (c, t, e) ->
      let cc = cexpr ctx fc c in
      let ct = cblock ctx fc t and ce = cblock ctx fc e in
      fun st l -> if cc st l <> 0 then ct st l else ce st l
  | SWhile (c, body) ->
      let cc = cexpr ctx fc c in
      let cb = cblock ctx fc body in
      fun st l ->
        (try
           while cc st l <> 0 do
             st.hooks.h_poll ();
             try cb st l with Cnt -> ()
           done
         with Brk -> ())
  | SFor (init, cond, step, body) ->
      let ci = Option.map (cstmt ctx fc) init in
      let cc = Option.map (cexpr ctx fc) cond in
      let cs = Option.map (cexpr ctx fc) step in
      let cb = cblock ctx fc body in
      fun st l ->
        (match ci with Some c -> c st l | None -> ());
        (try
           while (match cc with Some c -> c st l <> 0 | None -> true) do
             st.hooks.h_poll ();
             (try cb st l with Cnt -> ());
             match cs with Some c -> ignore (c st l) | None -> ()
           done
         with Brk -> ())
  | SReturn None -> fun _ _ -> raise (Ret 0)
  | SReturn (Some e) ->
      let c = cexpr ctx fc e in
      fun st l -> raise (Ret (c st l))
  | SBreak -> fun _ _ -> raise Brk
  | SContinue -> fun _ _ -> raise Cnt
  | SBlock b -> cblock ctx fc b

and cblock ctx fc (b : stmt list) : st -> int array -> unit =
  let cs = Array.of_list (List.map (cstmt ctx fc) b) in
  fun st l ->
    for i = 0 to Array.length cs - 1 do
      cs.(i) st l
    done

type compiled = {
  nc_mem_image : string; (* initial data segment contents *)
  nc_data_end : int;
  nc_heap_base : int;
  nc_funcs : (st -> int array -> int) array;
  nc_func_idx : (string, int) Hashtbl.t;
  nc_table_idx : (string, int) Hashtbl.t;
  nc_main_params : int;
  nc_argc_addr : int option; (* __argc global *)
  nc_argv_addr : int option;
}

let compile (p : program) : compiled =
  let env = Mc_check.check p in
  let ctx =
    {
      env;
      globals = Hashtbl.create 32;
      strings = Hashtbl.create 32;
      data = [];
      data_end = 1024;
      func_idx = Hashtbl.create 32;
      table_idx = Hashtbl.create 8;
    }
  in
  (* globals/arrays: identical layout policy to the Wasm backend *)
  List.iter
    (function
      | GVar (t, n, init) ->
          let addr = ctx.data_end in
          ctx.data_end <- align4 (addr + size_of t);
          Hashtbl.replace ctx.globals n { g_addr = addr; g_ty = t; g_is_array = false };
          (match init with
          | Some v when v <> 0 ->
              let b = Bytes.create 4 in
              Bytes.set_int32_le b 0 (Int32.of_int v);
              ctx.data <- (addr, Bytes.to_string b) :: ctx.data
          | _ -> ())
      | GArr (t, n, count) ->
          let addr = ctx.data_end in
          ctx.data_end <- align4 (addr + (size_of t * count)) + 4;
          Hashtbl.replace ctx.globals n { g_addr = addr; g_ty = t; g_is_array = true }
      | GFunc _ -> ())
    p;
  let funcs = List.filter_map (function GFunc f -> Some f | _ -> None) p in
  List.iteri (fun i f -> Hashtbl.replace ctx.func_idx f.fn_name i) funcs;
  (* fnptr table slots, matching the Wasm backend's offset-2 policy *)
  let fnptrs = Hashtbl.create 8 in
  let syscalls = Hashtbl.create 1 and builtins = Hashtbl.create 1 in
  List.iter
    (fun f -> List.iter (Mc_wasm.scan_stmt ~syscalls ~builtins ~fnptrs) f.fn_body)
    funcs;
  let names = List.sort compare (Hashtbl.fold (fun k () a -> k :: a) fnptrs []) in
  List.iteri (fun i n -> Hashtbl.replace ctx.table_idx n (i + 2)) names;
  let compiled_funcs =
    Array.of_list
      (List.map
         (fun f ->
           let fc = { locals = Hashtbl.create 16; nlocals = List.length f.fn_params } in
           List.iteri (fun i (t, n) -> Hashtbl.replace fc.locals n (i, t)) f.fn_params;
           let body = cblock ctx fc f.fn_body in
           let nparams = List.length f.fn_params in
           let total = fc.nlocals in
           fun (st : st) (args : int array) ->
             let l = Array.make (max total 1) 0 in
             Array.blit args 0 l 0 (min (Array.length args) nparams);
             (try
                body st l;
                0
              with Ret v -> v))
         funcs)
  in
  (* render the initial data image *)
  let img = Bytes.make ctx.data_end '\000' in
  List.iter
    (fun (addr, s) -> Bytes.blit_string s 0 img addr (String.length s))
    ctx.data;
  let gaddr n =
    Option.map (fun g -> g.g_addr) (Hashtbl.find_opt ctx.globals n)
  in
  {
    nc_mem_image = Bytes.to_string img;
    nc_data_end = ctx.data_end;
    nc_heap_base = (ctx.data_end + 4095) land lnot 4095;
    nc_funcs = compiled_funcs;
    nc_func_idx = ctx.func_idx;
    nc_table_idx = ctx.table_idx;
    nc_main_params =
      (match Hashtbl.find_opt env.Mc_check.funcs "main" with
      | Some s -> List.length s.Mc_check.fs_params
      | None -> 0);
    nc_argc_addr = gaddr "__argc";
    nc_argv_addr = gaddr "__argv";
  }

(** Instantiate a compiled program over a fresh memory and run a function
    by name. Used by the native runner. *)
let make_state (c : compiled) ~(mem : Wasm.Rt.Memory.t) ~(hooks : hooks) : st =
  Wasm.Rt.Memory.write_string mem ~addr:0 c.nc_mem_image;
  { mem; hooks; funcs = c.nc_funcs }

let call (c : compiled) (st : st) (name : string) (args : int array) : int =
  match Hashtbl.find_opt c.nc_func_idx name with
  | Some i -> c.nc_funcs.(i) st args
  | None -> error "native: no function %s" name

(** The function a function pointer names, if any (signal handlers). *)
let func_of_slot (c : compiled) (slot : int) : (st -> int array -> int) option =
  Hashtbl.fold
    (fun name s acc ->
      if s = slot then Some c.nc_funcs.(Hashtbl.find c.nc_func_idx name)
      else acc)
    c.nc_table_idx None
