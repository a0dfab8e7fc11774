(** Runtime values and numeric operator semantics.

    Floats are carried as raw IEEE-754 bit patterns so that value equality,
    cloning (fork) and binary round-trips are exact. *)

type value =
  | I32 of int32
  | I64 of int64
  | F32 of int32 (* bits *)
  | F64 of int64 (* bits *)

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

let type_of = function
  | I32 _ -> Types.T_i32
  | I64 _ -> Types.T_i64
  | F32 _ -> Types.T_f32
  | F64 _ -> Types.T_f64

let default_of = function
  | Types.T_i32 -> I32 0l
  | Types.T_i64 -> I64 0L
  | Types.T_f32 -> F32 0l
  | Types.T_f64 -> F64 0L
  | Types.T_funcref -> I32 0l (* null funcref sentinel; tables store options *)

let to_string = function
  | I32 v -> Printf.sprintf "i32:%ld" v
  | I64 v -> Printf.sprintf "i64:%Ld" v
  | F32 b -> Printf.sprintf "f32:%g" (Int32.float_of_bits b)
  | F64 b -> Printf.sprintf "f64:%g" (Int64.float_of_bits b)

let as_i32 = function I32 v -> v | v -> trap "expected i32, got %s" (to_string v)
let as_i64 = function I64 v -> v | v -> trap "expected i64, got %s" (to_string v)
let as_f32 = function F32 v -> v | v -> trap "expected f32, got %s" (to_string v)
let as_f64 = function F64 v -> v | v -> trap "expected f64, got %s" (to_string v)

(* ------------------------------------------------------------------ *)
(* i32 operators                                                       *)
(* ------------------------------------------------------------------ *)

module I32_op = struct
  open Int32

  let unsigned_compare a b = compare (add a min_int) (add b min_int)

  let clz x =
    if x = 0l then 32
    else begin
      let n = ref 0 and x = ref x in
      while logand !x 0x80000000l = 0l do
        incr n;
        x := shift_left !x 1
      done;
      !n
    end

  let ctz x =
    if x = 0l then 32
    else begin
      let n = ref 0 and x = ref x in
      while logand !x 1l = 0l do
        incr n;
        x := shift_right_logical !x 1
      done;
      !n
    end

  let popcnt x =
    let n = ref 0 in
    for i = 0 to 31 do
      if logand (shift_right_logical x i) 1l = 1l then incr n
    done;
    !n

  let div_s a b =
    if b = 0l then trap "integer divide by zero"
    else if a = min_int && b = -1l then trap "integer overflow"
    else div a b

  let rem_s a b =
    if b = 0l then trap "integer divide by zero"
    else if a = min_int && b = -1l then 0l
    else rem a b

  let div_u a b =
    if b = 0l then trap "integer divide by zero" else unsigned_div a b

  let rem_u a b =
    if b = 0l then trap "integer divide by zero" else unsigned_rem a b

  let shl a b = shift_left a (to_int (logand b 31l))
  let shr_s a b = shift_right a (to_int (logand b 31l))
  let shr_u a b = shift_right_logical a (to_int (logand b 31l))

  let rotl a b =
    let n = to_int (logand b 31l) in
    if n = 0 then a else logor (shift_left a n) (shift_right_logical a (32 - n))

  let rotr a b =
    let n = to_int (logand b 31l) in
    if n = 0 then a else logor (shift_right_logical a n) (shift_left a (32 - n))
end

(* ------------------------------------------------------------------ *)
(* i64 operators                                                       *)
(* ------------------------------------------------------------------ *)

module I64_op = struct
  open Int64

  let unsigned_compare a b = compare (add a min_int) (add b min_int)

  let clz x =
    if x = 0L then 64
    else begin
      let n = ref 0 and x = ref x in
      while logand !x 0x8000000000000000L = 0L do
        incr n;
        x := shift_left !x 1
      done;
      !n
    end

  let ctz x =
    if x = 0L then 64
    else begin
      let n = ref 0 and x = ref x in
      while logand !x 1L = 0L do
        incr n;
        x := shift_right_logical !x 1
      done;
      !n
    end

  let popcnt x =
    let n = ref 0 in
    for i = 0 to 63 do
      if logand (shift_right_logical x i) 1L = 1L then incr n
    done;
    !n

  let div_s a b =
    if b = 0L then trap "integer divide by zero"
    else if a = min_int && b = -1L then trap "integer overflow"
    else div a b

  let rem_s a b =
    if b = 0L then trap "integer divide by zero"
    else if a = min_int && b = -1L then 0L
    else rem a b

  let div_u a b =
    if b = 0L then trap "integer divide by zero" else unsigned_div a b

  let rem_u a b =
    if b = 0L then trap "integer divide by zero" else unsigned_rem a b

  let shl a b = shift_left a (to_int (logand b 63L))
  let shr_s a b = shift_right a (to_int (logand b 63L))
  let shr_u a b = shift_right_logical a (to_int (logand b 63L))

  let rotl a b =
    let n = to_int (logand b 63L) in
    if n = 0 then a else logor (shift_left a n) (shift_right_logical a (64 - n))

  let rotr a b =
    let n = to_int (logand b 63L) in
    if n = 0 then a else logor (shift_right_logical a n) (shift_left a (64 - n))
end

(* ------------------------------------------------------------------ *)
(* float <-> int conversions with Wasm trapping semantics              *)
(* ------------------------------------------------------------------ *)

module Convert = struct
  let trunc_f64_i32_s f =
    if Float.is_nan f then trap "invalid conversion to integer";
    if f >= 2147483648.0 || f <= -2147483649.0 then trap "integer overflow";
    Int32.of_float f

  let trunc_f64_i32_u f =
    if Float.is_nan f then trap "invalid conversion to integer";
    if f >= 4294967296.0 || f <= -1.0 then trap "integer overflow";
    Int64.to_int32 (Int64.of_float f)

  let trunc_f64_i64_s f =
    if Float.is_nan f then trap "invalid conversion to integer";
    if f >= 9.2233720368547758e18 || f < -9.2233720368547758e18 then
      trap "integer overflow";
    Int64.of_float f

  let trunc_f64_i64_u f =
    if Float.is_nan f then trap "invalid conversion to integer";
    if f >= 1.8446744073709552e19 || f <= -1.0 then trap "integer overflow";
    if f < 9.2233720368547758e18 then Int64.of_float f
    else Int64.add (Int64.of_float (f -. 9223372036854775808.0)) Int64.min_int

  let convert_i32_u_to_float x =
    Int64.to_float (Int64.logand (Int64.of_int32 x) 0xFFFFFFFFL)

  let convert_i64_u_to_float x =
    if Int64.compare x 0L >= 0 then Int64.to_float x
    else
      Int64.to_float (Int64.shift_right_logical x 1) *. 2.0
      +. Int64.to_float (Int64.logand x 1L)
end
