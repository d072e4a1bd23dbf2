open Ff_dataplane

(* Registers, hash uses, tables, and ALU-ish updates of one statement. *)
let rec expr_stats (regs, hashes, alus) = function
  | Ppm.Const _ | Ppm.Field _ | Ppm.Meta _ -> (regs, hashes, alus)
  | Ppm.Reg_read (r, idx) -> expr_stats (r :: regs, hashes, alus) idx
  | Ppm.Hash fields -> (regs, List.sort compare fields :: hashes, alus)
  | Ppm.Binop (_, a, b) -> expr_stats (expr_stats (regs, hashes, alus + 1) a) b

let rec cond_stats acc = function
  | Ppm.True -> acc
  | Ppm.Cmp (_, a, b) -> expr_stats (expr_stats acc a) b
  | Ppm.And (a, b) | Ppm.Or (a, b) -> cond_stats (cond_stats acc a) b
  | Ppm.Not c -> cond_stats acc c

let rec stmt_stats acc = function
  | Ppm.Set_meta (_, e) -> expr_stats acc e
  | Ppm.Reg_write (r, idx, v) ->
    let regs, hashes, alus = expr_stats (expr_stats acc idx) v in
    (r :: regs, hashes, alus + 1)
  | Ppm.Mark_suspicious c | Ppm.Drop_when c -> cond_stats acc c
  | Ppm.Emit_probe _ -> acc
  | Ppm.Apply_table _ -> acc
  | Ppm.If (c, yes, no) ->
    let acc = cond_stats acc c in
    let acc = List.fold_left stmt_stats acc yes in
    List.fold_left stmt_stats acc no

let rec stmt_tables acc = function
  | Ppm.Apply_table t -> t :: acc
  | Ppm.If (_, yes, no) ->
    let acc = List.fold_left stmt_tables acc yes in
    List.fold_left stmt_tables acc no
  | Ppm.Set_meta _ | Ppm.Reg_write _ | Ppm.Mark_suspicious _ | Ppm.Drop_when _
  | Ppm.Emit_probe _ -> acc

let rec stmt_count acc = function
  | Ppm.If (_, yes, no) ->
    let acc = List.fold_left stmt_count (acc + 1) yes in
    List.fold_left stmt_count acc no
  | Ppm.Set_meta _ | Ppm.Reg_write _ | Ppm.Mark_suspicious _ | Ppm.Drop_when _
  | Ppm.Emit_probe _ | Ppm.Apply_table _ -> acc + 1

let estimate_resources body =
  let regs, hashes, alus =
    List.fold_left stmt_stats ([], [], 0) body
  in
  let tables = List.fold_left stmt_tables [] body in
  let distinct xs = List.length (List.sort_uniq compare xs) in
  let stmts = List.fold_left stmt_count 0 body in
  Resource.make
    ~stages:(Float.max 1. (ceil (float_of_int stmts /. 3.)))
    ~sram_kb:(64. *. float_of_int (distinct regs))
    ~tcam:(64. *. float_of_int (distinct tables))
    ~alus:(float_of_int alus)
    ~hash_units:(float_of_int (distinct hashes))
    ()
