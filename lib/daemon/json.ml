(* The codec is Wj_util.Json; this alias serves perfbench/, which names it here. *)
include Wj_util.Json
