type t =
  | No_init
  | Init_dup
  | Invalid_handle
  | Invalid_arg
  | No_space
  | Invalid_ni
  | Invalid_pt_index
  | Invalid_ac_index
  | Invalid_md
  | Invalid_me
  | Invalid_eq
  | Invalid_ct
  | Md_in_use
  | Eq_empty
  | Eq_dropped
  | Process_invalid
  | Segv

let to_string = function
  | No_init -> "PTL_NOINIT"
  | Init_dup -> "PTL_INIT_DUP"
  | Invalid_handle -> "PTL_INV_HANDLE"
  | Invalid_arg -> "PTL_INV_ARG"
  | No_space -> "PTL_NOSPACE"
  | Invalid_ni -> "PTL_INV_NI"
  | Invalid_pt_index -> "PTL_INV_PTINDEX"
  | Invalid_ac_index -> "PTL_INV_ACINDEX"
  | Invalid_md -> "PTL_INV_MD"
  | Invalid_me -> "PTL_INV_ME"
  | Invalid_eq -> "PTL_INV_EQ"
  | Invalid_ct -> "PTL_INV_CT"
  | Md_in_use -> "PTL_MD_INUSE"
  | Eq_empty -> "PTL_EQ_EMPTY"
  | Eq_dropped -> "PTL_EQ_DROPPED"
  | Process_invalid -> "PTL_PROCESS_INVALID"
  | Segv -> "PTL_SEGV"

let pp ppf t = Format.pp_print_string ppf (to_string t)

exception Portals_error of t * string

let () =
  Printexc.register_printer (function
    | Portals_error (e, op) -> Some (Printf.sprintf "%s in %s" (to_string e) op)
    | _ -> None)

let ok_exn ~op = function Ok v -> v | Error e -> raise (Portals_error (e, op))
