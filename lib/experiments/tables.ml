module P = Portals

type table = {
  number : int;
  title : string;
  fields : (string * string) list;
  encoded_bytes : int;
  payload_bytes : int;
}

let sample_initiator = Simnet.Proc_id.make ~nid:0 ~pid:0
let sample_target = Simnet.Proc_id.make ~nid:1 ~pid:0

let sample_put ~payload =
  P.Wire.put_request ~initiator:sample_initiator ~target:sample_target
    ~portal_index:4 ~cookie:0
    ~match_bits:(P.Match_bits.of_int 0xBEEF)
    ~offset:0 ~md_handle:P.Handle.none ~eq_handle:P.Handle.none
    ~data:(Bytes.create payload) ()

let sample_get ~rlength =
  P.Wire.get_request ~initiator:sample_initiator ~target:sample_target
    ~portal_index:4 ~cookie:0
    ~match_bits:(P.Match_bits.of_int 0xBEEF)
    ~offset:0 ~md_handle:P.Handle.none ~rlength ()

let sample_atomic () =
  P.Wire.atomic_request ~aop:P.Wire.Fetch_add ~operand:1L
    ~initiator:sample_initiator ~target:sample_target ~portal_index:4 ~cookie:0
    ~match_bits:(P.Match_bits.of_int 0xBEEF)
    ~offset:0 ~md_handle:P.Handle.none ()

let run () =
  let payload = 1_024 in
  let put = sample_put ~payload in
  let ack = P.Wire.ack_of_put put ~mlength:payload in
  let get = sample_get ~rlength:payload in
  let reply = P.Wire.reply_of_get get ~mlength:payload ~data:(Bytes.create payload) in
  let table number title op msg payload_bytes =
    {
      number;
      title;
      fields = P.Wire.field_inventory op;
      encoded_bytes = Bytes.length (P.Wire.encode ~integrity:false msg);
      payload_bytes;
    }
  in
  let atomic = sample_atomic () in
  let atomic_reply = P.Wire.atomic_reply_of_request atomic ~fetched:41L in
  [
    table 1 "Information Passed in a Put Request" P.Wire.Put_request put payload;
    table 2 "Information Passed in an Acknowledgment" P.Wire.Ack ack 0;
    table 3 "Information Passed in a Get Request" P.Wire.Get_request get 0;
    table 4 "Information Passed in a Reply" P.Wire.Reply reply payload;
    (* Beyond the paper's four: the atomic extension's wire formats,
       regenerated from the same field inventory. *)
    table 5 "Information Passed in an Atomic Request" P.Wire.Atomic_request
      atomic 0;
    table 6 "Information Passed in an Atomic Reply" P.Wire.Atomic_reply
      atomic_reply 0;
  ]

let pp ppf tables =
  List.iter
    (fun t ->
      Format.fprintf ppf "Table %d. %s@." t.number t.title;
      Format.fprintf ppf "  %-22s %s@." "Information" "Description";
      List.iter
        (fun (field, description) ->
          Format.fprintf ppf "  %-22s %s@." field description)
        t.fields;
      Format.fprintf ppf
        "  (encoded: %d bytes on the wire for a %d-byte payload; header %d)@.@."
        t.encoded_bytes t.payload_bytes P.Wire.header_size)
    tables
